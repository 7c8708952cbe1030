package proctarget

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/trigger"
)

// privateVictim copies a built victim to a path of its own, so the test
// gets a victimInfo (trace, stepOnly) no other test shares.
func privateVictim(t *testing.T, name string) string {
	t.Helper()
	src, err := os.Open(victimBin(t, name))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	path := filepath.Join(t.TempDir(), name)
	dst, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o755)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(dst, src); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// steppedVictim is a private copy of a victim marked the way two
// disagreeing recordings would mark it: every experiment on it is
// single-stepped, which makes it the reference the guided path is
// compared against.
func steppedVictim(t *testing.T, name string) string {
	t.Helper()
	path := privateVictim(t, name)
	vi, err := loadVictim(path)
	if err != nil {
		t.Fatal(err)
	}
	vi.stepOnly = true
	return path
}

// childPIDs lists this process's live or zombie children.
func childPIDs(t *testing.T) []int {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var kids []int
	for _, path := range stats {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // exited while we were looking
		}
		// pid (comm) state ppid ...; comm may contain spaces and parens.
		rest := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
		if len(rest) < 2 {
			continue
		}
		if ppid, _ := strconv.Atoi(rest[1]); ppid == os.Getpid() {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
			kids = append(kids, pid)
		}
	}
	return kids
}

// arrive runs one experiment's algorithm up to the injection point and
// returns the register file there. The caller ends the experiment with
// InitTestCard.
func arrive(t *testing.T, tgt *Target, camp *campaign.Campaign, budget uint64) regFile {
	t.Helper()
	ex := &core.Experiment{Campaign: camp, Seq: int(budget), Name: fmt.Sprintf("arrive-%d", budget),
		Trigger: trigger.Spec{Kind: "cycle", Cycle: budget}}
	for _, step := range []func(*core.Experiment) error{
		tgt.InitTestCard, tgt.LoadWorkload, tgt.RunWorkload, tgt.WaitForBreakpoint,
	} {
		if err := step(ex); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
	}
	if !tgt.atInjectionPoint || tgt.steps != budget {
		t.Fatalf("budget %d: at injection point %v after %d steps", budget, tgt.atInjectionPoint, tgt.steps)
	}
	var rf regFile
	if err := tgt.on(func() (err error) { rf, err = tgt.tr.Regs(); return err }); err != nil {
		t.Fatal(err)
	}
	return rf
}

// counters snapshots the trigger counters with the fallbacks by reason.
type counters struct {
	stops, steps, nondet, mismatch uint64
}

func readCounters() counters {
	return counters{mStops.Value(), mSteps.Value(),
		mFallbackNondeterministic.Value(), mFallbackMismatch.Value()}
}

func (c counters) since(b counters) counters {
	return counters{c.stops - b.stops, c.steps - b.steps, c.nondet - b.nondet, c.mismatch - b.mismatch}
}

// TestProcGuidedArrivalDifferential: for every N in the window, a child
// guided to step N by counted breakpoint hits stands where a
// single-stepped child stands after N instructions — same rip, same
// registers up to the stack displacement — and got there without a
// single-step or a fallback. The guided children are forked from a
// zygote that stands still for the whole loop; the stepped one is exec'd.
func TestProcGuidedArrivalDifferential(t *testing.T) {
	const window = 200
	for _, name := range []string{"matmul", "loop"} {
		t.Run(name, func(t *testing.T) {
			bin := victimBin(t, name)
			vi, err := loadVictim(bin)
			if err != nil {
				t.Fatal(err)
			}
			// The stepped child: one more recording, independent of the
			// memoised trace the guided arrivals are checked against.
			stepped, err := vi.record(window, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if len(stepped.regs) != window+1 {
				t.Fatalf("stepped child recorded %d states, want %d", len(stepped.regs), window+1)
			}
			camp := procCampaign(bin, RegisterChainName, 5_000_000)
			camp.RandomWindow = [2]uint64{1, window + 1}
			tgt := newTarget(t)
			arrive(t, tgt, camp, 1) // records the trace if no earlier test did
			before := readCounters()
			for n := uint64(1); n <= window; n++ {
				got := arrive(t, tgt, camp, n)
				if got[slotRIP] != stepped.pc(int(n)) {
					t.Fatalf("N=%d: guided rip %#x, stepped rip %#x", n, got[slotRIP], stepped.pc(int(n)))
				}
				// Registers the victim does not reproduce between children
				// (none on matmul) cannot be compared on a third one either.
				diff := diffRegs(&stepped.regs[n], &got) &^ tgt.trace.loose[n]
				// A register the stepped child has not written yet holds
				// what the runtime left in it, and a separate exec can leave
				// another value there: it must hold the guided child's own.
				for s := range got {
					if int(n) < stepped.held[s] {
						diff &^= 1 << s
						if got[s] != tgt.start[s] {
							diff |= 1 << s
						}
					}
				}
				if diff != 0 {
					t.Fatalf("N=%d: slots %#b differ\nguided registers  %#x\nstepped registers %#x", n, diff, got, stepped.regs[n])
				}
				if name == "matmul" && tgt.trace.loose[n] != 0 {
					t.Fatalf("N=%d: matmul's recordings disagreed on slots %#b", n, tgt.trace.loose[n])
				}
			}
			d := readCounters().since(before)
			if d.steps != 0 || d.nondet != 0 || d.mismatch != 0 {
				t.Fatalf("guided arrivals cost %d single-steps, %d+%d fallbacks; want none", d.steps, d.nondet, d.mismatch)
			}
			if d.stops == 0 {
				t.Fatal("no breakpoint stops counted: the arrivals were not guided")
			}
			t.Logf("%s: %.1f breakpoint stops per arrival", name, float64(d.stops)/window)
		})
	}
}

// TestProcTraceCapTailIsStepped: an injection point beyond the recorded
// prefix is reached by guiding to the end of the trace and stepping the
// rest, and lands where pure stepping lands.
func TestProcTraceCapTailIsStepped(t *testing.T) {
	const tail = 50
	bin := victimBin(t, "matmul")
	camp := procCampaign(bin, RegisterChainName, 10_000_000)
	camp.RandomWindow = [2]uint64{1, maxTraceSteps + tail + 1}
	tgt := newTarget(t)
	arrive(t, tgt, camp, 1) // record up to the cap
	if n := len(tgt.trace.regs); n != maxTraceSteps+1 {
		t.Fatalf("trace holds %d states, want the cap %d", n, maxTraceSteps+1)
	}
	before := readCounters()
	guided := arrive(t, tgt, camp, maxTraceSteps+tail)
	d := readCounters().since(before)
	if d.steps != tail || d.stops == 0 || d.mismatch != 0 {
		t.Fatalf("beyond the cap: %d single-steps (want %d), %d stops, %d mismatches", d.steps, tail, d.stops, d.mismatch)
	}

	camp.Workload.Source = steppedVictim(t, "matmul")
	stepped := arrive(t, tgt, camp, maxTraceSteps+tail)
	if guided[slotRIP] != stepped[slotRIP] {
		t.Fatalf("guided+tail rip %#x, stepped rip %#x", guided[slotRIP], stepped[slotRIP])
	}
}

// TestProcNondeterministicPrefixIsStepped: a victim whose prefix
// branches on its pid yields two recordings that disagree, so it gets no
// trace and its experiments are single-stepped — and still classified.
func TestProcNondeterministicPrefixIsStepped(t *testing.T) {
	bin := privateVictim(t, "pidbranch") // recorded here, whatever ran before
	camp := procCampaign(bin, RegisterChainName, 2_000_000)
	camp.RandomWindow = [2]uint64{1, 300} // covers the branch on every pid bit
	tgt := newTarget(t)
	before := readCounters()
	fault := &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{63}} // rax bit 0
	ex := runExperiment(t, tgt, camp, 0, fault, 40)
	d := readCounters().since(before)

	vi, _ := loadVictim(bin)
	if !vi.stepOnly || vi.trace != nil {
		t.Fatalf("pid-dependent prefix kept a trace (stepOnly=%v)", vi.stepOnly)
	}
	if d.nondet != 1 || d.mismatch != 0 || d.stops != 0 {
		t.Fatalf("fallbacks nondeterministic=%d mismatch=%d, stops=%d; want 1, 0, 0", d.nondet, d.mismatch, d.stops)
	}
	// Two recordings of the window, then the experiment's own 40 steps.
	if want := uint64(2*300 + 40); d.steps != want {
		t.Fatalf("%d single-steps, want %d", d.steps, want)
	}
	out := ex.Result.Outcome
	if !ex.Injected || out.Attempts != 1 || out.Cycles != 40 || out.Status == "" {
		t.Fatalf("stepped experiment: injected=%v outcome=%+v", ex.Injected, out)
	}
}

// TestProcArrivalMismatchIsRedoneByStepping: when the child guided to
// the injection point does not carry the recorded registers, it is
// discarded with its zygote and the experiment redone by stepping on a
// child of a new zygote; the record is a normal classified one, first
// attempt.
func TestProcArrivalMismatchIsRedoneByStepping(t *testing.T) {
	const n = 120
	bin := privateVictim(t, "matmul")
	camp := procCampaign(bin, MemoryChainName, 2_000_000)
	camp.RandomWindow = [2]uint64{1, 200}
	tgt := newTarget(t)
	arrive(t, tgt, camp, 1)
	tgt.trace.regs[n][0] ^= 1 << 40 // the recording now claims another rax at step n

	fault := &faultmodel.Fault{Kind: faultmodel.Transient,
		Bits: []int{memBit(t, bin, "g.main.gA", 20)}}
	vi, _ := loadVictim(bin)
	if _, err := vi.referenceStdout(time.Minute); err != nil {
		t.Fatal(err)
	}
	before := readCounters()
	f0, e0 := spawns()
	ex := runExperiment(t, tgt, camp, 0, fault, n)
	d := readCounters().since(before)
	if d.mismatch != 1 || d.nondet != 0 || d.steps != n || d.stops == 0 {
		t.Fatalf("mismatch=%d nondet=%d single-steps=%d stops=%d; want 1, 0, %d, >0", d.mismatch, d.nondet, d.steps, d.stops, n)
	}
	// The redo is forked from a new zygote: the old one's children would
	// all stand where this one did.
	if f1, e1 := spawns(); f1-f0 != 2 || e1-e0 != 1 {
		t.Fatalf("%d forks and %d execs for a mismatched arrival; want 2 and 1", f1-f0, e1-e0)
	}
	out := ex.Result.Outcome
	if !ex.Injected || out.Status != campaign.OutcomeSDC || out.Attempts != 1 || out.Cycles != n {
		t.Fatalf("redone experiment: injected=%v outcome=%+v, want an injected sdc on attempt 1", ex.Injected, out)
	}
	// Nothing is left but the board's zygote, and closing the board kills
	// that too; the next experiment execs another.
	onlyZygote(t, tgt)

	// One bad arrival condemns nothing: the next experiment is guided.
	before = readCounters()
	runExperiment(t, tgt, camp, 1, fault, n-1)
	if d := readCounters().since(before); d.steps != 0 || d.mismatch != 0 {
		t.Fatalf("after a mismatch: %d single-steps, %d mismatches; want a guided arrival", d.steps, d.mismatch)
	}
}

// procRun runs one seeded campaign of the conformance shape — n register
// faults within the first 200 instructions of the victim's workload —
// through the standard runner on boards mk makes (one board unless opts
// say otherwise), and returns each experiment's outcome class by name.
// stopAt > 0 stops the campaign once that many experiments are in.
func procRun(t *testing.T, bin string, seed int64, n, stopAt int, mk func() core.TargetSystem,
	opts ...core.RunnerOption) (map[string]campaign.OutcomeStatus, *core.Summary, error) {
	t.Helper()
	info, _ := core.LookupTarget(Kind)
	tsd, err := info.SystemData("proc-board", core.TargetConfig{Params: map[string]string{"victim": bin}})
	if err != nil {
		t.Fatal(err)
	}
	camp := &campaign.Campaign{
		Name:           "proc-conformance",
		TargetName:     "proc-board",
		ChainName:      RegisterChainName,
		Locations:      []string{"gpr"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient, Multiplicity: 1},
		Trigger:        trigger.Spec{Kind: "cycle"},
		RandomWindow:   [2]uint64{1, 200},
		NumExperiments: n,
		Seed:           seed,
		Termination:    campaign.Termination{TimeoutCycles: 1_000_000},
		Workload:       campaign.WorkloadSpec{Name: "victim:" + filepath.Base(bin), Source: bin},
		LogMode:        campaign.LogNormal,
	}
	outcomes := make(map[string]campaign.OutcomeStatus)
	var r *core.Runner
	opts = append([]core.RunnerOption{core.WithBoards(1, mk), core.WithProgress(func(ev core.ProgressEvent) {
		if ev.Phase == "experiment" {
			outcomes[ev.Experiment] = ev.Outcome
			if len(outcomes) == stopAt {
				r.Stop()
			}
		}
	})}, opts...)
	r, err = core.NewRunner(mk(), core.Algorithms()[info.Algorithm], camp, tsd, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	return outcomes, sum, err
}

// procBoard makes plain proc boards.
func procBoard() core.TargetSystem {
	tgt, _ := New(core.TargetConfig{})
	return tgt
}

// conformanceSeeds are the seeds of the conformance bar's three
// 120-experiment campaigns.
var conformanceSeeds = []int64{11, 2026, 77003}

// conformingRuns runs seeded n-experiment campaigns on two kinds of board
// and holds them to the conformance bar: every sequence number gets the
// same outcome class, or, since a live process is not bound to repeat,
// each class's proportions over all seeds agree within their 95% Wilson
// intervals. It returns the two histograms.
func conformingRuns(t *testing.T, seeds []int64, n int, aName, aBin string, aBoard func() core.TargetSystem,
	bName, bBin string, bBoard func() core.TargetSystem) (a, b map[campaign.OutcomeStatus]int) {
	t.Helper()
	a = make(map[campaign.OutcomeStatus]int)
	b = make(map[campaign.OutcomeStatus]int)
	total, differing := 0, 0
	for _, seed := range seeds {
		var runs [2]map[string]campaign.OutcomeStatus
		for i, side := range []struct {
			bin   string
			board func() core.TargetSystem
		}{{aBin, aBoard}, {bBin, bBoard}} {
			outcomes, _, err := procRun(t, side.bin, seed, n, 0, side.board)
			if err != nil {
				t.Fatal(err)
			}
			if len(outcomes) != n {
				t.Fatalf("seed %d: %d outcomes, want %d", seed, len(outcomes), n)
			}
			runs[i] = outcomes
		}
		for name, ao := range runs[0] {
			bo := runs[1][name]
			total++
			a[ao]++
			b[bo]++
			if ao != bo {
				differing++
				t.Logf("seed %d %s: %s %s, %s %s", seed, name, aName, ao, bName, bo)
			}
		}
	}
	if len(a) < 2 {
		t.Fatalf("degenerate outcome histogram %v", a)
	}
	t.Logf("%d experiments, %d per-sequence differences; %s %v %s %v", total, differing, aName, a, bName, b)
	if differing == 0 {
		return a, b
	}
	for class, n := range a {
		wa, wb := analysis.Wilson(n, total), analysis.Wilson(b[class], total)
		if wa.Lo > wb.Hi || wb.Lo > wa.Hi {
			t.Errorf("class %s: %s %d/%d [%.3f, %.3f] and %s %d/%d [%.3f, %.3f] do not overlap",
				class, aName, n, total, wa.Lo, wa.Hi, bName, b[class], total, wb.Lo, wb.Hi)
		}
	}
	for class, n := range b {
		if a[class] == 0 && analysis.Wilson(n, total).Lo > analysis.Wilson(0, total).Hi {
			t.Errorf("class %s: %d/%d %s, never %s", class, n, total, bName, aName)
		}
	}
	return a, b
}

// TestProcSteppedGuidedConformance is the statistical bar for the proc
// target: the same seeded campaigns run single-stepped and guided must
// give every sequence number the same outcome class (conformingRuns).
func TestProcSteppedGuidedConformance(t *testing.T) {
	guidedBin := victimBin(t, "matmul")
	steppedBin := steppedVictim(t, "matmul")
	before := readCounters()
	stepped, _ := conformingRuns(t, conformanceSeeds, 120, "stepped", steppedBin, procBoard, "guided", guidedBin, procBoard)
	total := 0
	for _, n := range stepped {
		total += n
	}
	d := readCounters().since(before)
	if d.mismatch != 0 || d.nondet != uint64(total) || d.stops == 0 {
		t.Fatalf("fallbacks mismatch=%d nondet=%d (want 0, %d: the stepped half), stops=%d", d.mismatch, d.nondet, total, d.stops)
	}
}
