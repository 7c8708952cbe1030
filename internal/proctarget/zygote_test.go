package proctarget

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
)

// spawns snapshots the spawn counters.
func spawns() (forks, execs uint64) {
	return mForks.Value(), mExecs.Value()
}

// TestProcForkExecConformance: children forked from a board's zygote
// and children exec'd afresh and run to main.workload, the way the prefix
// recordings are, must give the same outcome classes over the seeded
// campaigns of the conformance bar. The forked side forks once per run
// and execs only its boards' zygotes.
func TestProcForkExecConformance(t *testing.T) {
	bin := victimBin(t, "matmul")
	execBoard := func() core.TargetSystem {
		tgt, _ := New(core.TargetConfig{})
		tgt.exec = true
		return tgt
	}
	forkBoard := func() core.TargetSystem {
		tgt, _ := New(core.TargetConfig{})
		return tgt
	}
	// What is exec'd once per victim — its prefix recordings, the
	// reference output — is in before the count starts.
	vi, err := loadVictim(bin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vi.prefix(200, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := vi.referenceStdout(time.Minute); err != nil {
		t.Fatal(err)
	}
	before := readCounters()
	f0, e0 := spawns()
	u0 := mSparesUnused.Value()
	r0 := mExperiments.Value()
	conformingRuns(t, conformanceSeeds, 120, "exec'd", bin, execBoard, "forked", bin, forkBoard)
	f1, e1 := spawns()
	forks, execs, runs := f1-f0, e1-e0, mExperiments.Value()-r0
	// Three seeds, each run once a side. A run is one spawn: an exec on
	// the exec'd side, a fork on the forked side, whose one board — the
	// reference's, which the worker takes over — execs one zygote; each
	// worker also forks a spare for an experiment that never comes. An
	// arrival mismatch adds its redo: an exec, or a fork from a newly
	// exec'd zygote.
	half, m, u := runs/2, readCounters().since(before).mismatch, mSparesUnused.Value()-u0
	if u != 3 || forks < half+u || forks > half+u+m || execs != half+3+m {
		t.Fatalf("%d runs, %d mismatches, %d spares unused: %d forks, %d execs; want %d forks (+ up to %d) and %d execs",
			runs, m, u, forks, execs, half+u, m, half+3+m)
	}
}

// TestProcChildOutputIsItsOwn: back-to-back children print different
// things — their own pids — and each capture holds its child's output and
// nothing else, a flood far past the cap included (capped, classified,
// and no deadlock against a reader that is not there). What the victim
// printed before main.workload, which only the zygote wrote, begins
// every capture.
func TestProcChildOutputIsItsOwn(t *testing.T) {
	bin := privateVictim(t, "chatty")
	tgt := newTarget(t)
	camp := procCampaign(bin, MemoryChainName, 5_000_000)
	camp.RandomWindow = [2]uint64{1, 10}
	filler := bytes.Repeat(alphabetLine(), 25)
	want := func(pid int) []byte {
		var b bytes.Buffer
		fmt.Fprintf(&b, "chatty begins\nchatty pid=%d\n", pid)
		b.Write(filler)
		fmt.Fprintf(&b, "chatty end pid=%d\n", pid)
		return b.Bytes()
	}
	// Value bit 22 of gSize: 100 KiB becomes 4 MiB + 100 KiB.
	flood := &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{memBit(t, bin, "g.main.gSize", 63-22)}}
	for seq := 0; seq < 12; seq++ {
		var fault *faultmodel.Fault
		if seq%4 == 2 {
			fault = flood
		}
		start := time.Now()
		ex := runExperiment(t, tgt, camp, seq, fault, 3)
		got := ex.Result.Memory["stdout"]
		if fault != nil {
			if len(got) != maxStdout || ex.Result.Outcome.Status != campaign.OutcomeSDC {
				t.Fatalf("seq %d: flood captured %d bytes as %s, want %d bytes as sdc",
					seq, len(got), ex.Result.Outcome.Status, maxStdout)
			}
			if !bytes.HasPrefix(got, want(tgt.LastPID())[:1000]) {
				t.Fatalf("seq %d: flood capture does not start with its own output: %q", seq, got[:100])
			}
			if d := time.Since(start); d > 3*time.Second {
				t.Fatalf("seq %d: flood took %v", seq, d)
			}
			continue
		}
		if w := want(tgt.LastPID()); !bytes.Equal(got, w) {
			t.Fatalf("seq %d (pid %d): captured %d bytes, want %d: head %q tail %q",
				seq, tgt.LastPID(), len(got), len(w), got[:min(len(got), 40)], got[max(0, len(got)-40):])
		}
	}
}

// alphabetLine is one 4 KiB line of chatty's filler.
func alphabetLine() []byte {
	line := make([]byte, 4096)
	for i := range line {
		line[i] = 'a' + byte(i%26)
	}
	line[len(line)-1] = '\n'
	return line
}

// TestProcVictimThatForks: a victim whose workload forks runs its
// grandchild untraced — the victim waits for it, so a grandchild left
// stopped under the tracer would hang the experiment — and every
// experiment ends in a classified record.
func TestProcVictimThatForks(t *testing.T) {
	bin := privateVictim(t, "forker")
	tgt := newTarget(t)
	camp := procCampaign(bin, RegisterChainName, 2_000_000)
	camp.RandomWindow = [2]uint64{1, 60}
	ref := runExperiment(t, tgt, camp, -1, nil, 0)
	if ref.Result.Outcome.Status != campaign.OutcomeCompleted {
		t.Fatalf("reference outcome %s", ref.Result.Outcome.Status)
	}
	line := regexp.MustCompile(`^forker grandchild=(\d+) status=7\n$`)
	m := line.FindSubmatch(ref.Result.Memory["stdout"])
	if m == nil {
		t.Fatalf("reference output %q", ref.Result.Memory["stdout"])
	}
	if st, err := os.ReadFile("/proc/" + string(m[1]) + "/status"); err == nil &&
		(strings.Contains(string(st), "(tracing stop)") || !strings.Contains(string(st), "TracerPid:\t0\n")) {
		t.Fatalf("grandchild %s is traced:\n%s", m[1], st)
	}
	valid := map[campaign.OutcomeStatus]bool{campaign.OutcomeMasked: true, campaign.OutcomeSDC: true,
		campaign.OutcomeCrash: true, campaign.OutcomeHang: true}
	for seq := 0; seq < 8; seq++ {
		// rbx, rcx, ... in turn, at a few points of the fork-and-wait.
		fault := &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{64*(seq%6+1) + 60}}
		ex := runExperiment(t, tgt, camp, seq, fault, uint64(5+7*seq))
		if !valid[ex.Result.Outcome.Status] {
			t.Fatalf("seq %d: outcome %q", seq, ex.Result.Outcome.Status)
		}
	}
	onlyZygote(t, tgt, true)
}

// TestProcArrivalCheckTakesTheChildsOwnStart: a register the workload has
// not written yet holds whatever the runtime left in it, and one exec of
// the victim can leave another value there than the recordings saw. A
// zygote that did stands where a stepped child of it would, so its
// children arrive guided, no mismatch; a child that does not hold its own
// start value in such a register still mismatches.
func TestProcArrivalCheckTakesTheChildsOwnStart(t *testing.T) {
	bin := privateVictim(t, "matmul")
	tgt := newTarget(t)
	camp := procCampaign(bin, MemoryChainName, 2_000_000)
	camp.RandomWindow = [2]uint64{1, 200}
	arrive(t, tgt, camp, 1) // records the trace
	// A register matmul's workload never writes within the window.
	slot := -1
	for s := range gprNames {
		if tgt.trace.held[s] == len(tgt.trace.regs) {
			slot = s
			break
		}
	}
	if slot < 0 {
		t.Fatal("matmul's workload writes every register within 200 steps")
	}
	// The recordings now claim another stale value there than the zygote
	// holds, at every step.
	for i := range tgt.trace.regs {
		tgt.trace.regs[i][slot] ^= 1 << 40
	}
	before := readCounters()
	for n := uint64(1); n <= 150; n += 37 {
		arrive(t, tgt, camp, n)
	}
	if d := readCounters().since(before); d.mismatch != 0 || d.steps != 0 {
		t.Fatalf("%d mismatches, %d single-steps; want guided arrivals", d.mismatch, d.steps)
	}
	// The child's own start is what is held against it.
	tgt.z.start[slot] ^= 1 << 41
	before = readCounters()
	arrive(t, tgt, camp, 100)
	if d := readCounters().since(before); d.mismatch != 1 {
		t.Fatalf("%d mismatches for a child off its own start; want 1", d.mismatch)
	}
}

// TestProcLockedVictimThatParks: sleeper locks its main goroutine to its
// thread and sleeps after its workload. Forked, it would hand its P to a
// thread the child does not have and hang; its forked reference run fails
// where the exec'd one exits 0, so its children are exec'd. The campaign
// then gives the outcome classes of one whose children are all exec'd.
func TestProcLockedVictimThatParks(t *testing.T) {
	forked, exec := privateVictim(t, "sleeper"), privateVictim(t, "sleeper")
	execBoard := func() core.TargetSystem {
		tgt, _ := New(core.TargetConfig{})
		tgt.exec = true
		return tgt
	}
	conformingRuns(t, []int64{3, 404}, 30, "exec'd", exec, execBoard, "forked", forked, procBoard)
	vi, err := loadVictim(forked)
	if err != nil {
		t.Fatal(err)
	}
	if !vi.noFork.Load() {
		t.Fatal("the locked victim's children were still forked")
	}
}

// TestProcReferenceOutputIsATracedRuns: runtimeenv prints the GOMAXPROCS
// its runtime took and the GODEBUG and GOTRACEBACK it was given. Whatever
// the operator has set, the reference output is captured in the
// environment every traced run has, so a fault-free forked child prints
// it byte for byte and a campaign on the victim finds masked runs.
func TestProcReferenceOutputIsATracedRuns(t *testing.T) {
	bin := privateVictim(t, "runtimeenv")
	t.Setenv("GOMAXPROCS", "3")
	t.Setenv("GODEBUG", "gctrace=0")
	t.Setenv("GOTRACEBACK", "all")
	vi, err := loadVictim(bin)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := vi.referenceStdout(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if want := `gomaxprocs=1 godebug="asyncpreemptoff=1,dontfreezetheworld=1" gotraceback="single"`; !bytes.Contains(ref, []byte(want)) {
		t.Fatalf("reference output %q, want it to show %s", ref, want)
	}
	tgt := newTarget(t)
	camp := procCampaign(bin, RegisterChainName, 2_000_000)
	camp.RandomWindow = [2]uint64{1, 200}
	ex := runExperiment(t, tgt, camp, 0, nil, 50)
	if got := ex.Result.Memory["stdout"]; !tgt.forked || !bytes.Equal(got, ref) {
		t.Fatalf("fault-free child (forked %v) printed %q, reference %q", tgt.forked, got, ref)
	}
	if st := ex.Result.Outcome.Status; st != campaign.OutcomeMasked {
		t.Fatalf("fault-free child classified %s", st)
	}
	outcomes, _, err := procRun(t, bin, 3, 60, 0, procBoard)
	if err != nil {
		t.Fatal(err)
	}
	classes := make(map[campaign.OutcomeStatus]int)
	for _, o := range outcomes {
		classes[o]++
	}
	if classes[campaign.OutcomeMasked] == 0 {
		t.Fatalf("no run of 60 masked: %v", classes)
	}
}

// TestProcCrashKeepsItsTraceback: a flipped top bit of rip makes the
// next instruction fetch fault, on a forked child and an exec'd one
// alike. The Go runtime turns that into a fatal error: exit 2, and a
// capture that still carries the fatal line and the crashing goroutine's
// traceback — the operator's diagnostic, in the victims' environment.
func TestProcCrashKeepsItsTraceback(t *testing.T) {
	bin := victimBin(t, "matmul")
	m := RegisterMap()
	loc, err := m.Find("special.rip")
	if err != nil {
		t.Fatal(err)
	}
	fault := &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{loc.Offset}}
	panicLine := regexp.MustCompile(`(?m)^(panic|fatal error): `)
	traceback := regexp.MustCompile(`(?m)^goroutine \d+ (.* )?\[running\]:$`)
	for _, exec := range []bool{false, true} {
		tgt := newTarget(t)
		tgt.exec = exec
		camp := procCampaign(bin, RegisterChainName, 2_000_000)
		camp.RandomWindow = [2]uint64{1, 200}
		for seq := 0; seq < 3; seq++ {
			ex := runExperiment(t, tgt, camp, seq, fault, uint64(5+40*seq))
			out, stdout := ex.Result.Outcome, ex.Result.Memory["stdout"]
			if tgt.forked == exec || out.Status != campaign.OutcomeCrash || out.Mechanism != "exit:2" {
				t.Fatalf("exec'd %v, seq %d: forked %v, outcome %s (%s); want a crash, exit:2", exec, seq, tgt.forked, out.Status, out.Mechanism)
			}
			if !panicLine.Match(stdout) || !traceback.Match(stdout) {
				t.Fatalf("exec'd %v, seq %d: the crash's capture lacks its panic line or traceback:\n%s", exec, seq, stdout)
			}
		}
	}
}

// TestProcLockedVictimGetsNoSpare: sleeper's children are exec'd (its
// forked reference run hangs), so its worker board never forks a spare.
func TestProcLockedVictimGetsNoSpare(t *testing.T) {
	bin := privateVictim(t, "sleeper")
	used, unused := mSparesUsed.Value(), mSparesUnused.Value()
	f0, _ := spawns()
	outcomes, _, err := procRun(t, bin, 5, 10, 0, procBoard)
	if err != nil || len(outcomes) != 10 {
		t.Fatalf("campaign: %v, %d outcomes", err, len(outcomes))
	}
	f1, _ := spawns()
	// The one fork is the reference run's, before its victim was found
	// not to survive one.
	if u, n := mSparesUsed.Value()-used, mSparesUnused.Value()-unused; u != 0 || n != 0 || f1-f0 != 1 {
		t.Fatalf("%d spares used, %d unused, %d forks; want 0, 0, 1", u, n, f1-f0)
	}
}

// TestProcCaptureHoldsOnlyItsChild: a child that wrote its output and
// ended without the capture being read — an experiment that failed after
// its child ran — leaves nothing in the next child's capture: the shared
// output file is emptied when a child becomes an experiment's.
func TestProcCaptureHoldsOnlyItsChild(t *testing.T) {
	bin := victimBin(t, "chatty")
	tgt := newTarget(t)
	camp := procCampaign(bin, MemoryChainName, 5_000_000)
	camp.RandomWindow = [2]uint64{1, 10}
	arrive(t, tgt, camp, 3)
	first := tgt.LastPID()
	if err := tgt.on(func() error { _, err := tgt.tr.Resume(nil); return err }); err != nil {
		t.Fatal(err)
	}
	ex := runExperiment(t, tgt, camp, 1, nil, 3)
	if got := ex.Result.Memory["stdout"]; bytes.Contains(got, []byte(fmt.Sprintf("pid=%d\n", first))) ||
		!bytes.HasPrefix(got, []byte(fmt.Sprintf("chatty begins\nchatty pid=%d\n", tgt.LastPID()))) {
		t.Fatalf("capture of child %d after child %d: head %q", tgt.LastPID(), first, got[:min(len(got), 60)])
	}
}
