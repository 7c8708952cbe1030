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
	tgt, err := New(core.TargetConfig{})
	if err != nil {
		t.Fatal(err)
	}
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
	tgt, _ := New(core.TargetConfig{})
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
	tgt, _ := New(core.TargetConfig{})
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
	tgt, _ := New(core.TargetConfig{})
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
	tgt, _ := New(core.TargetConfig{})
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
	// Every child must be gone — recorders, the discarded child, the
	// respawned one: the tracer reaps synchronously, so not even a
	// zombie is left.
	if tgt.LastPID() == 0 {
		t.Fatal("no child pid recorded")
	}
	if kids := childPIDs(t); len(kids) != 0 {
		t.Fatalf("children %v still present after hang reap", kids)
	}
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
}

// TestProcScanChainAlgorithmPreciseError: proctarget deliberately skips
// the scan-chain methods; selecting scifi against it must surface the
// Fig 3 template's NotImplementedError naming ReadScanChain, and the
// aborted experiment must not leak its child.
func TestProcScanChainAlgorithmPreciseError(t *testing.T) {
	bin := victimBin(t, "matmul")
	tgt, _ := New(core.TargetConfig{})
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
	tgt, _ := New(core.TargetConfig{})
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
	tgt, _ := New(core.TargetConfig{})
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
