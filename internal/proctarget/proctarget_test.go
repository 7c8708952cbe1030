package proctarget

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/trigger"
)

// victimBin builds (once per process) the named example victim and
// returns the binary path, skipping the test when ptrace is not usable
// here (non-linux, restricted container).
var victims = struct {
	sync.Mutex
	dir    string
	built  map[string]string
	probed map[string]error
}{built: make(map[string]string), probed: make(map[string]error)}

func victimBin(t *testing.T, name string) string {
	t.Helper()
	victims.Lock()
	defer victims.Unlock()
	if victims.dir == "" {
		dir, err := os.MkdirTemp("", "goofi-victims-")
		if err != nil {
			t.Fatal(err)
		}
		victims.dir = dir
	}
	bin, ok := victims.built[name]
	if !ok {
		_, thisFile, _, _ := runtime.Caller(0)
		root := filepath.Join(filepath.Dir(thisFile), "..", "..")
		bin = filepath.Join(victims.dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./examples/victims/"+name)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build victim %s: %v\n%s", name, err, out)
		}
		victims.built[name] = bin
	}
	probeErr, ok := victims.probed[bin]
	if !ok {
		probeErr = Probe(bin)
		victims.probed[bin] = probeErr
	}
	if probeErr != nil {
		t.Skipf("ptrace unavailable here: %v", probeErr)
	}
	return bin
}

// skipUnlessCounting skips a test of the counted guide where the kernel
// refuses the counting breakpoint (perf_event_paranoid above 2, no
// breakpoint PMU): the guide hops int3s there, and their tests still run.
func skipUnlessCounting(t *testing.T) {
	t.Helper()
	if err := countingRefused(); err != nil {
		t.Skipf("no counting breakpoint here: %v", err)
	}
}

// newTarget builds a proc target that is closed when the test ends, so
// no zygote of one test is left for another test's /proc scan to find.
func newTarget(t *testing.T) *Target {
	t.Helper()
	tgt, err := New(core.TargetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tgt.Close() })
	return tgt
}

// procCampaign builds a minimal campaign for direct algorithm runs.
func procCampaign(victim, chain string, timeoutUS uint64) *campaign.Campaign {
	return &campaign.Campaign{
		Name:      "proc-test",
		ChainName: chain,
		Workload:  campaign.WorkloadSpec{Name: "victim:" + filepath.Base(victim), Source: victim},
		Termination: campaign.Termination{
			TimeoutCycles: timeoutUS,
		},
	}
}

// runExperiment drives one RuntimeSWIFI experiment directly.
func runExperiment(t *testing.T, tgt *Target, camp *campaign.Campaign, seq int,
	fault *faultmodel.Fault, budget uint64) *core.Experiment {
	t.Helper()
	ex := &core.Experiment{
		Campaign: camp,
		Seq:      seq,
		Name:     fmt.Sprintf("proc-test-%d", seq),
		Fault:    fault,
		Trigger:  trigger.Spec{Kind: "cycle", Cycle: budget},
		RNG:      rand.New(rand.NewSource(1)),
	}
	if err := core.RuntimeSWIFI.Run(tgt, ex); err != nil {
		t.Fatalf("experiment seq %d: %v", seq, err)
	}
	return ex
}

// memBit returns the absolute memory-chain bit offset of the named
// location's given bit.
func memBit(t *testing.T, victim, loc string, bit int) int {
	t.Helper()
	vi, err := loadVictim(victim)
	if err != nil {
		t.Fatal(err)
	}
	l, err := vi.memMap.Find(loc)
	if err != nil {
		t.Fatalf("victim %s: %v (locations: %+v)", victim, err, vi.memMap.Locations)
	}
	return l.Offset + bit
}

// TestProcReferenceRun: the fault-free reference run completes with
// exit 0 and captures the victim's output.
func TestProcReferenceRun(t *testing.T) {
	bin := victimBin(t, "matmul")
	tgt := newTarget(t)
	camp := procCampaign(bin, RegisterChainName, 2_000_000)
	ex := runExperiment(t, tgt, camp, -1, nil, 0)
	if got := ex.Result.Outcome.Status; got != campaign.OutcomeCompleted {
		t.Fatalf("reference outcome = %s, want completed", got)
	}
	out := ex.Result.Memory["stdout"]
	if !strings.Contains(string(out), "matmul n=24") {
		t.Fatalf("reference stdout = %q, want matmul output", out)
	}
}

// TestProcMasked: a flip in gC before the workload runs is fully
// overwritten by the computation — deterministically masked.
func TestProcMasked(t *testing.T) {
	bin := victimBin(t, "matmul")
	tgt := newTarget(t)
	camp := procCampaign(bin, MemoryChainName, 2_000_000)
	fault := &faultmodel.Fault{Kind: faultmodel.Transient,
		Bits: []int{memBit(t, bin, "g.main.gC", 7)}}
	ex := runExperiment(t, tgt, camp, 0, fault, 3)
	if !ex.Injected {
		t.Fatal("fault was not injected")
	}
	if got := ex.Result.Outcome.Status; got != campaign.OutcomeMasked {
		t.Fatalf("outcome = %s (mech %q), want masked", got, ex.Result.Outcome.Mechanism)
	}
}

// TestProcSDC: a flip in input matrix gA changes the printed hash —
// deterministic silent data corruption.
func TestProcSDC(t *testing.T) {
	bin := victimBin(t, "matmul")
	tgt := newTarget(t)
	camp := procCampaign(bin, MemoryChainName, 2_000_000)
	fault := &faultmodel.Fault{Kind: faultmodel.Transient,
		Bits: []int{memBit(t, bin, "g.main.gA", 20)}}
	ex := runExperiment(t, tgt, camp, 1, fault, 3)
	if got := ex.Result.Outcome.Status; got != campaign.OutcomeSDC {
		t.Fatalf("outcome = %s (mech %q), want sdc", got, ex.Result.Outcome.Mechanism)
	}
	if ex.Result.Outcome.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", ex.Result.Outcome.Attempts)
	}
}

// TestProcCrash: flipping the stack pointer's high bit makes the next
// stack access fault — a crash via signal or non-zero exit either way.
func TestProcCrash(t *testing.T) {
	bin := victimBin(t, "matmul")
	tgt := newTarget(t)
	camp := procCampaign(bin, RegisterChainName, 2_000_000)
	m := RegisterMap()
	loc, err := m.Find("special.rsp")
	if err != nil {
		t.Fatal(err)
	}
	fault := &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{loc.Offset}}
	ex := runExperiment(t, tgt, camp, 2, fault, 5)
	out := ex.Result.Outcome
	if out.Status != campaign.OutcomeCrash {
		t.Fatalf("outcome = %s (mech %q), want crash", out.Status, out.Mechanism)
	}
	if out.Mechanism == "" {
		t.Fatal("crash outcome carries no mechanism")
	}
}

// TestProcHangWatchdogNoLeaks is the hang-path contract: a victim
// whose loop bound is flipped to an astronomically large value must be
// reaped by the watchdog, classified hang with Attempts recorded, and
// must leak neither a child process nor a tracer goroutine. The
// experiment is made to spawn every kind of child there is: the victim
// is a private copy, so its prefix is recorded here (two children), and
// the recording is then falsified at the injection point, so the guided
// child is discarded and the experiment redone on a respawned one.
func TestProcHangWatchdogNoLeaks(t *testing.T) {
	bin := privateVictim(t, "loop")
	tgt := newTarget(t)
	camp := procCampaign(bin, MemoryChainName, 200_000) // 200ms watchdog

	before := runtime.NumGoroutine()
	vi, err := loadVictim(bin)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := vi.prefix(3, time.Second)
	if err != nil || !trace.usable() {
		t.Fatalf("recording the loop victim's prefix: %v", err)
	}
	trace.regs[3][0] ^= 1 << 40
	mismatches := mFallbackMismatch.Value()

	// Bit 1 of the 64-bit bound is value bit 62: gEnd jumps from 4096
	// to 2^62+4096, an effectively infinite loop (bit 0 would flip the
	// sign and end the loop immediately).
	fault := &faultmodel.Fault{Kind: faultmodel.Transient,
		Bits: []int{memBit(t, bin, "g.main.gEnd", 1)}}
	start := time.Now()
	ex := runExperiment(t, tgt, camp, 3, fault, 3)
	elapsed := time.Since(start)

	out := ex.Result.Outcome
	if out.Status != campaign.OutcomeHang {
		t.Fatalf("outcome = %s (mech %q), want hang", out.Status, out.Mechanism)
	}
	if out.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", out.Attempts)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("hang took %v to reap; the watchdog should fire at ~200ms", elapsed)
	}
	if got := mFallbackMismatch.Value() - mismatches; got != 1 {
		t.Fatalf("%d arrival mismatches, want the forced one", got)
	}
	// Every child but the board's zygote and its spare must be gone —
	// recorders, the discarded child and its zygote, the respawned one: the
	// tracer reaps synchronously, so not even a zombie is left. The board
	// retiring takes the zygote and the spare.
	if tgt.LastPID() == 0 {
		t.Fatal("no child pid recorded")
	}
	onlyZygote(t, tgt, true)
	// No stuck tracer goroutine: allow brief settling, then require the
	// count back near the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d after=%d; tracer leaked", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The same target must run a healthy follow-up experiment: cleanup
	// after a hang leaves no wedged state behind.
	ex2 := runExperiment(t, tgt, camp, -1, nil, 0)
	if got := ex2.Result.Outcome.Status; got != campaign.OutcomeCompleted {
		t.Fatalf("follow-up reference outcome = %s, want completed", got)
	}
	tgt.Close()

	// A zygote lives as long as its board. However the campaign ends —
	// at its end, stopped, with boards power-cycled and quarantined, with
	// a zygote killed under it — a board has no child but its zygote, its
	// spare and the child of an experiment it is closed in, and no child,
	// no zombie and no tracer thread outlives Run.
	mm := victimBin(t, "matmul")
	t.Run("campaign-ends", func(t *testing.T) {
		before := runtime.NumGoroutine()
		c0 := readCounters()
		f0, e0 := spawns()
		u0 := mSparesUnused.Value()
		r0 := mExperiments.Value()
		_, sum, err := procRun(t, mm, 5, 40, 0, checkedBoard(t, true))
		if err != nil || sum.Experiments != 40 {
			t.Fatalf("campaign: %v, %+v", err, sum)
		}
		f1, e1 := spawns()
		// One fork per run, and the spare the worker forked for an
		// experiment that never came; the execs are per board and per
		// victim (one zygote — the reference board's, which the worker
		// takes over — at most two recordings and a reference capture),
		// however many experiments there are. An arrival mismatch adds a
		// fork for its redo and an exec for the zygote that replaces the
		// one it came from.
		m, u := readCounters().since(c0).mismatch, mSparesUnused.Value()-u0
		if runs := mExperiments.Value() - r0; u != 1 || f1-f0 != runs+m+u || e1-e0 > 4+m {
			t.Fatalf("%d runs, %d mismatches, %d spares unused: %d forks, %d execs", runs, m, u, f1-f0, e1-e0)
		}
		noLeaks(t, before)
	})
	t.Run("campaign-stopped", func(t *testing.T) {
		before := runtime.NumGoroutine()
		outcomes, sum, err := procRun(t, mm, 6, 200, 5, checkedBoard(t, true))
		if err != nil || sum.Experiments >= 200 || len(outcomes) < 5 {
			t.Fatalf("stopped campaign: %v, %d experiments", err, sum.Experiments)
		}
		noLeaks(t, before)
	})
	for _, boards := range []int{1, 3} {
		t.Run(fmt.Sprintf("power-cycled-quarantined/boards%d", boards), func(t *testing.T) {
			before := runtime.NumGoroutine()
			// Experiment 7 fails twice with its child forked: a power
			// cycle, then the breaker. With one board the campaign has
			// none left.
			var mu sync.Mutex
			failures := 2
			checked := checkedBoard(t, boards == 1)
			board := func() core.TargetSystem {
				return &failingBoard{closeChecked: checked().(*closeChecked), fail: func(ex *core.Experiment) error {
					mu.Lock()
					defer mu.Unlock()
					if ex.Seq != 7 || failures == 0 {
						return nil
					}
					failures--
					return &procError{class: core.Persistent, err: errors.New("board failure on cue")}
				}}
			}
			_, sum, err := procRun(t, mm, 7, 30, 0, board, core.WithBoards(boards, board),
				core.WithRetryPolicy(core.RetryPolicy{MaxRetries: 3, BoardFailureThreshold: 2}))
			if boards == 1 && (err == nil || !strings.Contains(err.Error(), "quarantined")) {
				t.Fatalf("one board, quarantined: err = %v", err)
			}
			if boards > 1 && (err != nil || sum.Experiments != 30) {
				t.Fatalf("three boards, one quarantined: %v, %d experiments", err, sum.Experiments)
			}
			if sum.QuarantinedBoards != 1 || sum.Retried != 2 {
				t.Fatalf("%d boards quarantined, %d retries; want 1 and 2", sum.QuarantinedBoards, sum.Retried)
			}
			noLeaks(t, before)
		})
	}
	t.Run("zygote-killed", func(t *testing.T) {
		before := runtime.NumGoroutine()
		undisturbed, _, err := procRun(t, mm, 8, 20, 0, procBoard)
		if err != nil {
			t.Fatal(err)
		}
		_, e0 := spawns()
		c0 := readCounters()
		kill := &zygoteKill{at: 9}
		checked := checkedBoard(t, true)
		board := func() core.TargetSystem {
			return &killingBoard{closeChecked: checked().(*closeChecked), zygoteKill: kill}
		}
		outcomes, sum, err := procRun(t, mm, 8, 20, 0, board,
			core.WithRetryPolicy(core.RetryPolicy{MaxRetries: 2}))
		if err != nil || kill.sparePID == 0 {
			t.Fatalf("campaign: %v (zygote killed with a spare: %v)", err, kill.sparePID != 0)
		}
		_, e1 := spawns()
		// The spare forked before the kill serves the next experiment, and
		// the spare fork after it finds the zygote dead and drops it: the
		// experiment after that execs a new one. The board's zygote — the
		// reference's, which the worker takes over — and the rebuilt one,
		// without a retry (and one more zygote per arrival mismatch).
		m := readCounters().since(c0).mismatch
		if !kill.served || m == 0 && !kill.dropped {
			t.Fatalf("the spare served the next experiment: %v; the zygote was dropped after it: %v", kill.served, kill.dropped)
		}
		if sum.Retried != 0 || sum.InvalidRuns != 0 || e1-e0 != 2+m {
			t.Fatalf("%d retries, %d invalid runs, %d execs; want 0, 0, %d", sum.Retried, sum.InvalidRuns, e1-e0, 2+m)
		}
		for name, o := range undisturbed {
			if outcomes[name] != o {
				t.Errorf("%s: %s with the zygote killed, %s undisturbed", name, outcomes[name], o)
			}
		}
		noLeaks(t, before)
	})
}

// onlyZygote closes a board, and fails unless before that its zygote,
// its spare and the child of an experiment it is closed in were children
// of this process — with exact, the only ones — and after it none is.
// It may be called from any goroutine.
func onlyZygote(t *testing.T, tgt *Target, exact bool) {
	t.Helper()
	z, spare, child := tgt.boardPIDs()
	own := []int{z}
	for _, pid := range []int{spare, child} {
		if pid != 0 {
			own = append(own, pid)
		}
	}
	kids := childPIDs(t)
	if z == 0 || exact && len(kids) != len(own) || !allIn(own, kids) {
		t.Errorf("children %v, want the zygote %d, its spare %d and child %d", kids, z, spare, child)
	}
	tgt.Close()
	if kids := childPIDs(t); exact && len(kids) != 0 || !exact && anyIn(own, kids) {
		t.Errorf("children %v outlived the board's Close", kids)
	}
}

// boardPIDs are the pids of the target's zygote, its spare and its
// experiment's child, 0 for those it has not.
func (t *Target) boardPIDs() (zygote, spare, child int) {
	t.on(func() error {
		if t.z != nil {
			zygote = t.z.tr.pid
		}
		if t.spare != nil {
			spare = t.spare.pid
		}
		if t.tr != nil {
			child = t.tr.pid
		}
		return nil
	})
	return zygote, spare, child
}

func allIn(pids, set []int) bool {
	for _, p := range pids {
		if !slices.Contains(set, p) {
			return false
		}
	}
	return true
}

func anyIn(pids, set []int) bool {
	for _, p := range pids {
		if slices.Contains(set, p) {
			return true
		}
	}
	return false
}

// closeChecked is a proc board whose Close is onlyZygote's check.
type closeChecked struct {
	*Target
	t     *testing.T
	exact bool
}

func (b *closeChecked) Close() error {
	onlyZygote(b.t, b.Target, b.exact)
	return nil
}

// checkedBoard makes closeChecked boards. exact holds in a one-board
// campaign: there, a closing board's processes are the only children.
func checkedBoard(t *testing.T, exact bool) func() core.TargetSystem {
	return func() core.TargetSystem {
		return &closeChecked{Target: procBoard().(*Target), t: t, exact: exact}
	}
}

// failingBoard is a proc board whose experiments fail on cue, after the
// failing attempt has forked its child.
type failingBoard struct {
	*closeChecked
	fail func(ex *core.Experiment) error
}

func (b *failingBoard) WaitForBreakpoint(ex *core.Experiment) error {
	if err := b.Target.WaitForBreakpoint(ex); err != nil {
		return err
	}
	return b.fail(ex)
}

// zygoteKill is what a killingBoard did and saw: the spare standing when
// it killed its zygote, whether that spare then served the experiment,
// and whether the zygote and its spare were gone after it.
type zygoteKill struct {
	at              int
	sparePID        int
	served, dropped bool
}

// killingBoard SIGKILLs its zygote once, between two experiments.
type killingBoard struct {
	*closeChecked
	*zygoteKill
}

func (b *killingBoard) InitTestCard(ex *core.Experiment) error {
	if err := b.Target.InitTestCard(ex); err != nil {
		return err
	}
	if ex.Seq == b.at && b.sparePID == 0 {
		z, spare, _ := b.boardPIDs()
		if z == 0 || spare == 0 {
			return errors.New("no zygote and spare to kill the zygote under")
		}
		b.sparePID = spare
		killProcess(z)
	}
	return nil
}

func (b *killingBoard) WaitForBreakpoint(ex *core.Experiment) error {
	err := b.Target.WaitForBreakpoint(ex)
	if ex.Seq == b.at {
		b.served = b.LastPID() == b.sparePID
	}
	return err
}

func (b *killingBoard) WaitForTermination(ex *core.Experiment) error {
	err := b.Target.WaitForTermination(ex)
	if ex.Seq == b.at {
		z, spare, _ := b.boardPIDs()
		b.dropped = z == 0 && spare == 0
	}
	return err
}

// noLeaks fails unless every child of this process has been reaped and
// the goroutine count is back near before.
func noLeaks(t *testing.T, before int) {
	t.Helper()
	if kids := childPIDs(t); len(kids) != 0 {
		t.Fatalf("children %v outlived the campaign", kids)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d after=%d; a tracer thread leaked", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestProcScanChainAlgorithmPreciseError: proctarget deliberately skips
// the scan-chain methods; selecting scifi against it must surface the
// Fig 3 template's NotImplementedError naming ReadScanChain, and the
// aborted experiment must not leak its child.
func TestProcScanChainAlgorithmPreciseError(t *testing.T) {
	bin := victimBin(t, "matmul")
	tgt := newTarget(t)
	camp := procCampaign(bin, RegisterChainName, 2_000_000)
	ex := &core.Experiment{
		Campaign: camp,
		Seq:      0,
		Name:     "proc-scifi-0",
		Fault:    &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{0}},
		Trigger:  trigger.Spec{Kind: "cycle", Cycle: 1},
		RNG:      rand.New(rand.NewSource(1)),
	}
	err := core.SCIFI.Run(tgt, ex)
	var ni *core.NotImplementedError
	if !errors.As(err, &ni) {
		t.Fatalf("err = %v, want NotImplementedError", err)
	}
	if ni.Method != "ReadScanChain" {
		t.Fatalf("NotImplementedError.Method = %q, want ReadScanChain", ni.Method)
	}
	if ni.Target != "proc" {
		t.Fatalf("NotImplementedError.Target = %q, want proc", ni.Target)
	}
	if core.ClassifyError(err) != core.Persistent {
		t.Fatalf("scan-chain gap classified %v, want persistent", core.ClassifyError(err))
	}
	// The algorithm aborted mid-experiment with a live stopped child;
	// InitTestCard is the recovery point and must reap it.
	pid := tgt.LastPID()
	if err := tgt.InitTestCard(&core.Experiment{Campaign: camp}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); err == nil {
		t.Fatalf("aborted experiment leaked child pid %d", pid)
	}
}

// TestProcRejectsPersistentFaults: a live process has no reassertion
// hook, so stuck-at and intermittent models are refused up front with a
// persistent (non-retryable) classification.
func TestProcRejectsPersistentFaults(t *testing.T) {
	bin := victimBin(t, "matmul")
	tgt := newTarget(t)
	camp := procCampaign(bin, RegisterChainName, 2_000_000)
	ex := &core.Experiment{
		Campaign: camp,
		Seq:      0,
		Name:     "proc-stuck-0",
		Fault:    &faultmodel.Fault{Kind: faultmodel.StuckAt1, Bits: []int{0}},
		Trigger:  trigger.Spec{Kind: "cycle", Cycle: 1},
		RNG:      rand.New(rand.NewSource(1)),
	}
	err := core.RuntimeSWIFI.Run(tgt, ex)
	if err == nil || !strings.Contains(err.Error(), "transient only") {
		t.Fatalf("err = %v, want transient-only rejection", err)
	}
	if core.ClassifyError(err) != core.Persistent {
		t.Fatalf("classified %v, want persistent", core.ClassifyError(err))
	}
}

// TestProcEarlyExitIsNotInjected: a budget far past the victim's
// lifetime means the injection point never occurs; the experiment
// completes uninjected (the runtime-SWIFI contract).
func TestProcEarlyExitIsNotInjected(t *testing.T) {
	bin := victimBin(t, "loop")
	tgt := newTarget(t)
	camp := procCampaign(bin, MemoryChainName, 5_000_000)
	fault := &faultmodel.Fault{Kind: faultmodel.Transient,
		Bits: []int{memBit(t, bin, "g.main.gEnd", 1)}}
	ex := runExperiment(t, tgt, camp, 5, fault, 50_000_000)
	if ex.Injected {
		t.Fatal("fault injected although the workload ended before the trigger")
	}
	if got := ex.Result.Outcome.Status; got != campaign.OutcomeMasked {
		t.Fatalf("outcome = %s, want masked (uninjected, output identical)", got)
	}
}

// TestProcCampaignPlanDeterminism runs a seeded campaign through the
// standard runner (registry target, random injection window) twice:
// the fault plan hash must be byte-identical across reruns — the
// relaxed replay contract for nondeterministic targets — while the
// summary declares the target nondeterministic and every outcome lands
// in the process outcome taxonomy.
func TestProcCampaignPlanDeterminism(t *testing.T) {
	bin := victimBin(t, "matmul")
	info, ok := core.LookupTarget("proc")
	if !ok {
		t.Fatal("proc target not registered")
	}
	cfg := core.TargetConfig{Params: map[string]string{"victim": bin}}
	tsd, err := info.SystemData("proc-board", cfg)
	if err != nil {
		t.Fatal(err)
	}
	camp := &campaign.Campaign{
		Name:           "proc-e2e",
		TargetName:     "proc-board",
		ChainName:      RegisterChainName,
		Locations:      []string{"gpr"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient, Multiplicity: 1},
		Trigger:        trigger.Spec{Kind: "cycle"},
		RandomWindow:   [2]uint64{1, 200},
		NumExperiments: 10,
		Seed:           99,
		Termination:    campaign.Termination{TimeoutCycles: 1_000_000}, // 1s watchdog
		Workload:       campaign.WorkloadSpec{Name: "victim:matmul", Source: bin},
		LogMode:        campaign.LogNormal,
	}
	alg, ok := core.Algorithms()[info.Algorithm]
	if !ok {
		t.Fatalf("algorithm %q not registered", info.Algorithm)
	}
	run := func() *core.Summary {
		t.Helper()
		ts, err := info.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.NewRunner(ts, alg, camp, tsd)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	s1 := run()
	s2 := run()
	if s1.PlanHash == "" || s1.PlanHash != s2.PlanHash {
		t.Fatalf("plan hashes differ across same-seed reruns: %q vs %q", s1.PlanHash, s2.PlanHash)
	}
	if s1.Deterministic || s2.Deterministic {
		t.Fatal("proc target reported deterministic; outcome replay is statistical")
	}
	if s1.Experiments != camp.NumExperiments {
		t.Fatalf("experiments = %d, want %d", s1.Experiments, camp.NumExperiments)
	}
	valid := map[campaign.OutcomeStatus]bool{
		campaign.OutcomeMasked: true, campaign.OutcomeSDC: true,
		campaign.OutcomeCrash: true, campaign.OutcomeHang: true,
		campaign.OutcomeCompleted: true,
	}
	total := 0
	for st, n := range s1.ByStatus {
		if !valid[st] {
			t.Fatalf("unexpected status %q (%d) in proc campaign", st, n)
		}
		total += n
	}
	if total != camp.NumExperiments {
		t.Fatalf("ByStatus covers %d experiments, want %d", total, camp.NumExperiments)
	}
}

// TestProcSystemDataChains: the configuration-phase record exposes the
// register chain always and the victim's globals when given a binary.
func TestProcSystemDataChains(t *testing.T) {
	bin := victimBin(t, "matmul")
	tsd, err := SystemData("proc", core.TargetConfig{Params: map[string]string{"victim": bin}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tsd.Validate(); err != nil {
		t.Fatal(err)
	}
	regs, err := tsd.Chain(RegisterChainName)
	if err != nil {
		t.Fatal(err)
	}
	if regs.Length != 18*64 {
		t.Fatalf("register chain length = %d, want %d", regs.Length, 18*64)
	}
	mem, err := tsd.Chain(MemoryChainName)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"g.main.gA", "g.main.gB", "g.main.gC"} {
		if _, err := mem.Find(want); err != nil {
			t.Fatalf("memory chain: %v", err)
		}
	}
}
