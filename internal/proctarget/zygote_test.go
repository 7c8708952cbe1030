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
	r0 := mExperiments.Value()
	conformingRuns(t, conformanceSeeds, 120, "exec'd", bin, execBoard, "forked", bin, forkBoard)
	f1, e1 := spawns()
	forks, execs, runs := f1-f0, e1-e0, mExperiments.Value()-r0
	// Three seeds, each run once a side. A run is one spawn: an exec on
	// the exec'd side, a fork on the forked side, whose boards (reference
	// and worker) exec one zygote each. An arrival mismatch adds its redo:
	// an exec, or a fork from a newly exec'd zygote.
	half, m := runs/2, readCounters().since(before).mismatch
	if forks < half || forks > half+m || execs != half+3*2+m {
		t.Fatalf("%d runs, %d mismatches: %d forks, %d execs; want %d forks (+ up to %d) and %d execs",
			runs, m, forks, execs, half, m, half+3*2+m)
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
	onlyZygote(t, tgt)
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
