package scifi

import (
	"context"
	"testing"

	"goofi/internal/bitvec"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// pidCampaign builds a SCIFI campaign over the PID control workload with
// the first-order plant closing the loop.
func pidCampaign(name string, n int, seed int64) *campaign.Campaign {
	return &campaign.Campaign{
		Name:       name,
		TargetName: "thor-board",
		ChainName:  "internal",
		Locations:  []string{"cpu"},
		FaultModel: faultmodel.Spec{Kind: faultmodel.Transient},
		Trigger:    trigger.Spec{Kind: "cycle"},
		// Inject somewhere in the first ~40 iterations.
		RandomWindow:   [2]uint64{200, 4000},
		NumExperiments: n,
		Seed:           seed,
		Termination:    campaign.Termination{TimeoutCycles: 300_000, MaxIterations: 60},
		Workload:       workload.PID(),
		EnvSim:         &campaign.EnvSimSpec{Name: "first-order-plant"},
		LogMode:        campaign.LogNormal,
	}
}

// sortCampaign builds a SCIFI campaign over the batch sort workload.
func sortCampaign(name string, n int, seed int64) *campaign.Campaign {
	return &campaign.Campaign{
		Name:           name,
		TargetName:     "thor-board",
		ChainName:      "internal",
		Locations:      []string{"cpu"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient},
		Trigger:        trigger.Spec{Kind: "cycle"},
		RandomWindow:   [2]uint64{10, 1600},
		NumExperiments: n,
		Seed:           seed,
		Termination:    campaign.Termination{TimeoutCycles: 100_000},
		Workload:       workload.Sort(),
		LogMode:        campaign.LogNormal,
	}
}

func newStore(t *testing.T, camp *campaign.Campaign) *campaign.Store {
	t.Helper()
	st, err := campaign.NewStore(sqldb.Open())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutTargetSystem(TargetSystemData("thor-board")); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign(camp); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestChainMapMatchesCPU(t *testing.T) {
	m := ChainMap()
	if err := m.Validate(); err != nil {
		t.Fatalf("chain map invalid: %v", err)
	}
	if m.Length != thor.ScanLen() {
		t.Errorf("map length %d != scan length %d", m.Length, thor.ScanLen())
	}
	if _, err := m.Find("cpu.pc"); err != nil {
		t.Error(err)
	}
	loc, err := m.Find("cpu.cycle")
	if err != nil || !loc.ReadOnly {
		t.Errorf("cpu.cycle = %+v, %v (want read-only)", loc, err)
	}
	bm := BoundaryMap()
	if err := bm.Validate(); err != nil {
		t.Fatalf("boundary map invalid: %v", err)
	}
}

func TestIDCodeThroughTAP(t *testing.T) {
	tgt := New(thor.DefaultConfig())
	id, err := tgt.Controller().ReadIDCode()
	if err != nil {
		t.Fatal(err)
	}
	if id != IDCode {
		t.Errorf("IDCODE = %#x, want %#x", id, IDCode)
	}
}

// TestScanReadInternalIntoDoesNotAllocate: a non-destructive read of the
// real chain — an IR load, two captures, two updates — allocates nothing
// once the controller and the TAP have their shift vectors, and leaves the
// device as it found it.
func TestScanReadInternalIntoDoesNotAllocate(t *testing.T) {
	tgt := New(thor.DefaultConfig())
	tgt.CPU().Regs[3] = 0xdead_beef
	v := bitvec.New(thor.ScanLen())
	read := func() {
		if err := tgt.Controller().ReadInternalInto(v); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if n := testing.AllocsPerRun(50, read); n != 0 {
		t.Errorf("ReadInternalInto allocates %v times a read", n)
	}
	if !v.Equal(tgt.CPU().ScanRead()) || tgt.CPU().Regs[3] != 0xdead_beef {
		t.Error("the double scan did not leave the device as it read it")
	}
}

// TestReadScanChainOwnsOneVector: the final read of an experiment
// overwrites the vector the read at the injection point allocated.
func TestReadScanChainOwnsOneVector(t *testing.T) {
	tgt := New(thor.DefaultConfig())
	ex := &core.Experiment{Campaign: sortCampaign("own-vector", 1, 1), Seq: 0, Name: "own-vector/exp00000"}
	if err := tgt.ReadScanChain(ex); err != nil {
		t.Fatal(err)
	}
	owned := ex.ScanVector
	tgt.CPU().Regs[3] = 7
	if err := tgt.ReadScanChain(ex); err != nil {
		t.Fatal(err)
	}
	if ex.ScanVector != owned || !owned.Equal(tgt.CPU().ScanRead()) {
		t.Error("the second ReadScanChain did not read into the experiment's own vector")
	}
}

func TestReferenceRunSortWorkload(t *testing.T) {
	tgt := New(thor.DefaultConfig())
	camp := sortCampaign("ref-test", 1, 1)
	ex := &core.Experiment{Campaign: camp, Seq: -1, Name: "ref-test/reference"}
	if err := core.SCIFI.Run(tgt, ex); err != nil {
		t.Fatal(err)
	}
	if ex.Result.Outcome.Status != campaign.OutcomeCompleted {
		t.Fatalf("reference outcome = %+v", ex.Result.Outcome)
	}
	arr, ok := ex.Result.Memory["arr"]
	if !ok || len(arr) != 64 {
		t.Fatalf("result memory arr = %d bytes", len(arr))
	}
	// First sorted element must be 2 (smallest input).
	first := uint32(arr[0])<<24 | uint32(arr[1])<<16 | uint32(arr[2])<<8 | uint32(arr[3])
	if first != 2 {
		t.Errorf("sorted[0] = %d, want 2", first)
	}
	if ex.Result.FinalScan == nil || ex.Result.FinalScan.Len() != thor.ScanLen() {
		t.Error("final scan state missing or wrong length")
	}
}

func TestCampaignEndToEndSort(t *testing.T) {
	// Architecture end to end (paper Fig 1): campaign store -> runner ->
	// algorithms -> target interface -> scan chains -> CPU -> logging.
	camp := sortCampaign("sort-e2e", 40, 11)
	st := newStore(t, camp)
	tgt := New(thor.DefaultConfig())
	r, err := core.NewRunner(tgt, core.SCIFI, camp, TargetSystemData("thor-board"), core.WithSink(st))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Experiments != 40 {
		t.Fatalf("experiments = %d", sum.Experiments)
	}
	recs, err := st.Experiments("sort-e2e")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 41 {
		t.Fatalf("logged = %d, want 41", len(recs))
	}
	// Outcomes must cover at least completed runs; with 40 random
	// register flips, typically some are detected too.
	if sum.ByStatus[campaign.OutcomeCompleted] == 0 {
		t.Errorf("no completed runs at all: %+v", sum.ByStatus)
	}
	injected := 0
	for _, rec := range recs {
		if rec.Data.Injected {
			injected++
		}
	}
	if injected == 0 {
		t.Error("no experiment injected its fault")
	}
}

func TestCampaignDeterministicReplay(t *testing.T) {
	outcomes := func() []campaign.Outcome {
		camp := sortCampaign("det", 15, 99)
		st := newStore(t, camp)
		tgt := New(thor.DefaultConfig())
		r, err := core.NewRunner(tgt, core.SCIFI, camp, TargetSystemData("thor-board"), core.WithSink(st))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		recs, err := st.Experiments("det")
		if err != nil {
			t.Fatal(err)
		}
		var out []campaign.Outcome
		for _, rec := range recs {
			if !rec.IsReference() {
				out = append(out, rec.Data.Outcome)
			}
		}
		return out
	}
	a, b := outcomes(), outcomes()
	if len(a) != len(b) {
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("experiment %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCampaignPIDWithEnvSimulator(t *testing.T) {
	camp := pidCampaign("pid-e2e", 25, 3)
	st := newStore(t, camp)
	tgt := New(thor.DefaultConfig())
	r, err := core.NewRunner(tgt, core.SCIFI, camp, TargetSystemData("thor-board"), core.WithSink(st))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The reference run must complete its 60 iterations and produce
	// outputs through the environment simulator loop.
	ref, err := st.GetExperiment(campaign.ReferenceName("pid-e2e"))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Data.Outcome.Status != campaign.OutcomeCompleted {
		t.Fatalf("reference outcome = %+v", ref.Data.Outcome)
	}
	if ref.Data.Outcome.Iterations != 60 {
		t.Errorf("reference iterations = %d, want 60", ref.Data.Outcome.Iterations)
	}
	outs := ref.State.Outputs[workload.PortOut]
	if len(outs) != 60 {
		t.Fatalf("reference outputs = %d, want 60", len(outs))
	}
	// The controller must have driven the plant near the setpoint: the
	// last command settles around setpoint (u ~= 100 in Q8.8).
	lastU := int32(outs[len(outs)-1])
	if lastU < 20000 || lastU > 30000 {
		t.Errorf("final command = %d (Q8.8), expected near 25600", lastU)
	}
	if sum.Experiments != 25 {
		t.Errorf("experiments = %d", sum.Experiments)
	}
}

func TestDetailModeProducesTrace(t *testing.T) {
	camp := sortCampaign("detail", 2, 5)
	camp.LogMode = campaign.LogDetail
	camp.Termination.TimeoutCycles = 30_000
	st := newStore(t, camp)
	tgt := New(thor.DefaultConfig())
	r, err := core.NewRunner(tgt, core.SCIFI, camp, TargetSystemData("thor-board"), core.WithSink(st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	trace, err := st.Trace(campaign.ExperimentName("detail", 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) < 100 {
		t.Fatalf("detail trace has %d steps, expected hundreds", len(trace))
	}
	// Each trace record carries a scan-state snapshot.
	if len(trace[0].State.Scan) == 0 {
		t.Error("trace step has no scan state")
	}
}

func TestPersistentStuckAtFault(t *testing.T) {
	camp := pidCampaign("stuck", 6, 21)
	camp.FaultModel = faultmodel.Spec{Kind: faultmodel.StuckAt1}
	st := newStore(t, camp)
	tgt := New(thor.DefaultConfig())
	r, err := core.NewRunner(tgt, core.SCIFI, camp, TargetSystemData("thor-board"), core.WithSink(st))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Experiments != 6 {
		t.Errorf("experiments = %d", sum.Experiments)
	}
}

func TestBranchTriggerCampaign(t *testing.T) {
	camp := sortCampaign("brtrig", 5, 31)
	camp.RandomWindow = [2]uint64{}
	camp.Trigger = trigger.Spec{Kind: "branch", Occurrence: 10}
	st := newStore(t, camp)
	tgt := New(thor.DefaultConfig())
	r, err := core.NewRunner(tgt, core.SCIFI, camp, TargetSystemData("thor-board"), core.WithSink(st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Experiments("brtrig")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.IsReference() {
			continue
		}
		if rec.Data.Injected && rec.Data.InjectionCycle == 0 {
			t.Errorf("experiment %s injected at cycle 0", rec.Name)
		}
	}
}

func TestRerunReproducesOutcome(t *testing.T) {
	camp := sortCampaign("rerun", 8, 13)
	st := newStore(t, camp)
	tgt := New(thor.DefaultConfig())
	r, err := core.NewRunner(tgt, core.SCIFI, camp, TargetSystemData("thor-board"), core.WithSink(st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Experiments("rerun")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.IsReference() || !rec.Data.Injected {
			continue
		}
		ex, err := r.Rerun(rec.Name, true)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Result.Outcome != rec.Data.Outcome {
			t.Errorf("rerun of %s: outcome %+v != original %+v",
				rec.Name, ex.Result.Outcome, rec.Data.Outcome)
		}
		// The detail re-run produced a trace with the original as
		// grandparent.
		trace, err := st.Trace(ex.Name)
		if err != nil {
			t.Fatal(err)
		}
		if len(trace) == 0 {
			t.Errorf("rerun of %s produced no trace", rec.Name)
		}
		break // one rerun is enough for the test
	}
}

func TestAssertionRecoveryCampaign(t *testing.T) {
	// The [12]-shaped experiment: the assertion-hardened PID workload
	// recovers from some injected faults instead of failing.
	camp := pidCampaign("assert", 10, 77)
	camp.Workload = workload.PIDAssert()
	st := newStore(t, camp)
	tgt := New(thor.DefaultConfig())
	r, err := core.NewRunner(tgt, core.SCIFI, camp, TargetSystemData("thor-board"), core.WithSink(st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Reference run recovers nothing (no faults, no assertion fires).
	ref, err := st.GetExperiment(campaign.ReferenceName("assert"))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Data.Outcome.Recovered != 0 {
		t.Errorf("reference recovered = %d", ref.Data.Outcome.Recovered)
	}
	if ref.Data.Outcome.Status != campaign.OutcomeCompleted {
		t.Errorf("reference status = %v", ref.Data.Outcome.Status)
	}
}

func TestTimeoutTermination(t *testing.T) {
	// An infinite-loop workload without iteration limit hits the
	// time-out termination condition.
	camp := pidCampaign("timeout", 1, 1)
	camp.Termination = campaign.Termination{TimeoutCycles: 20_000} // no MaxIterations
	st := newStore(t, camp)
	tgt := New(thor.DefaultConfig())
	r, err := core.NewRunner(tgt, core.SCIFI, camp, TargetSystemData("thor-board"), core.WithSink(st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ref, err := st.GetExperiment(campaign.ReferenceName("timeout"))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Data.Outcome.Status != campaign.OutcomeTimeout {
		t.Errorf("status = %v, want timeout", ref.Data.Outcome.Status)
	}
}

func TestICacheInjectionDetectedByParity(t *testing.T) {
	// Injecting into icache data words of a hot loop must produce
	// parity detections — the hallmark SCIFI capability on a
	// parity-protected cache. Target only icache word arrays.
	camp := sortCampaign("parity", 30, 55)
	var locs []string
	m := ChainMap()
	for _, l := range m.Locations {
		if len(l.Name) > 6 && l.Name[:6] == "icache" &&
			(contains(l.Name, ".word")) {
			locs = append(locs, l.Name)
		}
	}
	camp.Locations = locs
	st := newStore(t, camp)
	tgt := New(thor.DefaultConfig())
	r, err := core.NewRunner(tgt, core.SCIFI, camp, TargetSystemData("thor-board"), core.WithSink(st))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.ByMechanism[thor.EDMParityI.String()] == 0 {
		t.Errorf("no icache parity detections in 30 cache injections: %+v", sum.ByMechanism)
	}
}

func TestParallelBoardsMatchSequential(t *testing.T) {
	// Four simulated boards produce the exact same logged outcomes as a
	// single board, record for record.
	run := func(parallel bool) []*campaign.ExperimentRecord {
		camp := sortCampaign("parity-par", 20, 77)
		st := newStore(t, camp)
		opts := []core.RunnerOption{core.WithSink(st)}
		if parallel {
			opts = append(opts, core.WithBoards(4, func() core.TargetSystem {
				return New(thor.DefaultConfig())
			}))
		}
		r, err := core.NewRunner(New(thor.DefaultConfig()), core.SCIFI, camp,
			TargetSystemData("thor-board"), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err = r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		recs, err := st.Experiments("parity-par")
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	seq := run(false)
	par := run(true)
	if len(seq) != len(par) {
		t.Fatalf("record counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Name != par[i].Name || seq[i].Data.Outcome != par[i].Data.Outcome {
			t.Errorf("record %s: seq %+v, par %+v",
				seq[i].Name, seq[i].Data.Outcome, par[i].Data.Outcome)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
