package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"goofi/internal/bitvec"
	"goofi/internal/campaign"
	"goofi/internal/faultmodel"
	"goofi/internal/scanchain"
	"goofi/internal/sqldb"
	"goofi/internal/telemetry"
	"goofi/internal/trigger"
)

// fakeTarget implements every abstract method by recording calls and
// simulating a tiny 64-bit "chain" with a deterministic outcome rule: the
// run is "detected" when bit 0 of the chain is set at termination.
type fakeTarget struct {
	Framework
	chain *bitvec.Vector
	calls []string
}

func newFakeTarget() *fakeTarget {
	return &fakeTarget{
		Framework: Framework{TargetName: "fake"},
		chain:     bitvec.New(64),
	}
}

func (f *fakeTarget) record(s string) { f.calls = append(f.calls, s) }

func (f *fakeTarget) InitTestCard(ex *Experiment) error {
	f.record("init")
	f.chain.Clear()
	return nil
}
func (f *fakeTarget) LoadWorkload(ex *Experiment) error { f.record("load"); return nil }
func (f *fakeTarget) WriteMemory(ex *Experiment) error  { f.record("writeMem"); return nil }
func (f *fakeTarget) RunWorkload(ex *Experiment) error  { f.record("run"); return nil }
func (f *fakeTarget) WaitForBreakpoint(ex *Experiment) error {
	f.record("waitBP")
	ex.InjectionCycle = 123
	return nil
}

// ReadScanChain reads the chain into the experiment's vector, as the thor
// board does, and into a new one when it has none of the chain's length.
func (f *fakeTarget) ReadScanChain(ex *Experiment) error {
	f.record("readChain")
	if ex.ScanVector == nil || ex.ScanVector.Len() != f.chain.Len() {
		ex.ScanVector = f.chain.Clone()
		return nil
	}
	return ex.ScanVector.CopyFrom(f.chain)
}

func (f *fakeTarget) WriteScanChain(ex *Experiment) error {
	f.record("writeChain")
	return f.chain.CopyFrom(ex.ScanVector)
}

func (f *fakeTarget) WaitForTermination(ex *Experiment) error {
	f.record("waitTerm")
	out := campaign.Outcome{Status: campaign.OutcomeCompleted, Cycles: 1000}
	if f.chain.Get(0) {
		out = campaign.Outcome{Status: campaign.OutcomeDetected, Mechanism: "fake-edm", Cycles: 500}
	}
	ex.Result.Outcome = out
	return nil
}

// fakeOut is what the fake's memory holds after every run.
var fakeOut = []byte{0xAA}

// ReadMemory reads the fake's memory back — as the reference run's, when
// it is the same, as the thor board does.
func (f *fakeTarget) ReadMemory(ex *Experiment) error {
	f.record("readMem")
	if ref := ex.Reference; ref != nil && len(ref.Memory) == 1 && bytes.Equal(ref.Memory["out"], fakeOut) {
		ex.Result.Memory = ref.Memory
		return nil
	}
	ex.Result.Memory = map[string][]byte{"out": bytes.Clone(fakeOut)}
	return nil
}

func fakeTSD() *campaign.TargetSystemData {
	return &campaign.TargetSystemData{
		Name:         "fake",
		TestCardName: "fake-card",
		Chains: []scanchain.Map{{
			Chain:  "internal",
			Length: 64,
			Locations: []scanchain.Location{
				{Name: "regs.a", Offset: 0, Width: 32},
				{Name: "regs.b", Offset: 32, Width: 16},
				{Name: "counter", Offset: 48, Width: 16, ReadOnly: true},
			},
		}},
	}
}

func fakeCampaign(n int) *campaign.Campaign {
	return &campaign.Campaign{
		Name:           "fc",
		TargetName:     "fake",
		ChainName:      "internal",
		Locations:      []string{"regs"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient},
		Trigger:        trigger.Spec{Kind: "cycle", Cycle: 50},
		NumExperiments: n,
		Seed:           7,
		Termination:    campaign.Termination{TimeoutCycles: 10000},
		Workload:       campaign.WorkloadSpec{Name: "w", Source: "halt"},
		LogMode:        campaign.LogNormal,
	}
}

func storeWithCampaign(t *testing.T, c *campaign.Campaign) *campaign.Store {
	t.Helper()
	return storeOn(t, sqldb.Open(), c)
}

// storeOn sets the campaign store up on db — schema, target system and
// campaign, each only where db does not hold it yet.
func storeOn(t *testing.T, db *sqldb.DB, c *campaign.Campaign) *campaign.Store {
	t.Helper()
	st, err := campaign.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutTargetSystem(fakeTSD()); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign(c); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSCIFIAlgorithmStepSequence(t *testing.T) {
	// Reproduces paper Fig 2: the exact faultInjectorSCIFI sequence.
	ts := newFakeTarget()
	camp := fakeCampaign(1)
	ex := &Experiment{
		Campaign: camp, Seq: 0, Name: "fc/exp00000",
		Fault: &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{5}},
	}
	if err := SCIFI.Run(ts, ex); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"initTestCard", "loadWorkload", "writeMemory", "runWorkload",
		"waitForBreakpoint", "readScanChain", "injectFault", "writeScanChain",
		"waitForTermination", "readMemory", "readScanChain",
	}
	if len(ex.StepTrace) != len(want) {
		t.Fatalf("step trace = %v", ex.StepTrace)
	}
	for i, w := range want {
		if ex.StepTrace[i] != w {
			t.Errorf("step %d = %q, want %q", i, ex.StepTrace[i], w)
		}
	}
	if !ex.Injected {
		t.Error("fault not injected")
	}
	if !ts.chain.Get(5) {
		t.Error("bit 5 not flipped on target")
	}
	if ex.Result.FinalScan == nil {
		t.Error("final scan state not captured")
	}
}

// TestStepTraceSizedOnce: the trace is allocated for the longest built-in
// algorithm and no algorithm outgrows it.
func TestStepTraceSizedOnce(t *testing.T) {
	longest := 0
	for name, alg := range Algorithms() {
		ex := &Experiment{
			Campaign: fakeCampaign(1), Seq: 0, Name: "fc/exp00000",
			Fault:      &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{5}},
			ScanVector: bitvec.New(64),
		}
		if err := alg.Run(newFakeTarget(), ex); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cap(ex.StepTrace) != maxAlgorithmSteps {
			t.Errorf("%s: trace of %d steps has capacity %d, want %d", name, len(ex.StepTrace), cap(ex.StepTrace), maxAlgorithmSteps)
		}
		longest = max(longest, len(ex.StepTrace))
	}
	if longest != maxAlgorithmSteps {
		t.Errorf("longest algorithm takes %d steps, maxAlgorithmSteps is %d", longest, maxAlgorithmSteps)
	}
}

func TestSCIFIReferenceRunSkipsInjection(t *testing.T) {
	ts := newFakeTarget()
	ex := &Experiment{Campaign: fakeCampaign(1), Seq: -1, Name: "fc/reference"}
	if err := SCIFI.Run(ts, ex); err != nil {
		t.Fatal(err)
	}
	for _, s := range ex.StepTrace {
		if s == "injectFault" || s == "writeScanChain" || s == "waitForBreakpoint" {
			t.Errorf("reference run executed %s", s)
		}
	}
	if ex.Injected {
		t.Error("reference run injected a fault")
	}
	if ts.chain.PopCount() != 0 {
		t.Error("reference run disturbed target state")
	}
}

func TestPreSWIFIInjectsBeforeDownload(t *testing.T) {
	ts := newFakeTarget()
	ex := &Experiment{
		Campaign: fakeCampaign(1), Seq: 0, Name: "x",
		Fault: &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{1}},
	}
	// The fake target's generic InjectFault needs a scan vector; for the
	// pre-runtime SWIFI flow the fault applies to the workload image, so
	// give the fake an image-like vector through ScanVector.
	ex.ScanVector = bitvec.New(64)
	if err := PreRuntimeSWIFI.Run(ts, ex); err != nil {
		t.Fatal(err)
	}
	trace := strings.Join(ex.StepTrace, ",")
	if !strings.Contains(trace, "injectFault,writeMemory") {
		t.Errorf("pre-runtime SWIFI order wrong: %v", ex.StepTrace)
	}
	if strings.Contains(trace, "waitForBreakpoint") {
		t.Errorf("pre-runtime SWIFI must not wait for a breakpoint: %v", ex.StepTrace)
	}
}

func TestFrameworkTemplateReportsMissingMethods(t *testing.T) {
	// Reproduces paper Fig 3: a new target built from the Framework
	// template. A port that implements nothing gets a precise error
	// naming the first missing abstract method.
	ts := &Framework{TargetName: "new-port"}
	ex := &Experiment{Campaign: fakeCampaign(1), Seq: -1, Name: "r"}
	err := SCIFI.Run(ts, ex)
	var nie *NotImplementedError
	if !errors.As(err, &nie) {
		t.Fatalf("error = %v, want NotImplementedError", err)
	}
	if nie.Method != "InitTestCard" || nie.Target != "new-port" {
		t.Errorf("error = %+v", nie)
	}
	if !strings.Contains(err.Error(), "InitTestCard") {
		t.Errorf("message %q does not name the method", err)
	}
}

// partialTarget overrides only some methods, as a real port would.
type partialTarget struct {
	Framework
}

func (p *partialTarget) InitTestCard(*Experiment) error { return nil }
func (p *partialTarget) LoadWorkload(*Experiment) error { return nil }

func TestFrameworkPartialPort(t *testing.T) {
	ts := &partialTarget{Framework: Framework{TargetName: "partial"}}
	ex := &Experiment{Campaign: fakeCampaign(1), Seq: -1, Name: "r"}
	err := SCIFI.Run(ts, ex)
	var nie *NotImplementedError
	if !errors.As(err, &nie) {
		t.Fatalf("error = %v", err)
	}
	// The first two methods succeed; the third is the missing one.
	if nie.Method != "WriteMemory" {
		t.Errorf("missing method = %q, want WriteMemory", nie.Method)
	}
	if len(ex.StepTrace) != 3 {
		t.Errorf("step trace = %v", ex.StepTrace)
	}
}

func TestRunnerCampaignEndToEnd(t *testing.T) {
	camp := fakeCampaign(20)
	st := storeWithCampaign(t, camp)
	ts := newFakeTarget()
	prog := telemetry.NewProgress(1)
	r, err := NewRunner(ts, SCIFI, camp, fakeTSD(), WithSink(st), WithTelemetry(nil, prog))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Experiments != 20 || sum.Injected != 20 {
		t.Errorf("summary = %+v", sum)
	}
	total := 0
	for _, n := range sum.ByStatus {
		total += n
	}
	if total != 20 {
		t.Errorf("status counts sum to %d", total)
	}
	// Detected outcomes happen exactly when bit 0 of the 64-bit chain
	// was flipped; with single bit-flips over 48 writable bits expect
	// roughly 20/48 of experiments... at least assert consistency:
	if sum.ByStatus[campaign.OutcomeDetected] != sum.ByMechanism["fake-edm"] {
		t.Errorf("mechanism counts inconsistent: %+v", sum)
	}
	// Reference run + experiments logged.
	if _, err := st.GetExperiment(campaign.ReferenceName("fc")); err != nil {
		t.Errorf("reference run not logged: %v", err)
	}
	recs, err := st.Experiments("fc")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 21 { // 20 experiments + reference
		t.Errorf("logged records = %d, want 21", len(recs))
	}
	// The progress view ends done, every experiment counted.
	if s := prog.Snapshot(); s.Campaign != "fc" || s.Phase != telemetry.PhaseDone || s.Done != 20 || s.Total != 20 {
		t.Errorf("final progress = %+v", s)
	}
}

func TestRunnerDeterminism(t *testing.T) {
	run := func() []campaign.OutcomeStatus {
		camp := fakeCampaign(15)
		st := storeWithCampaign(t, camp)
		r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(), WithSink(st))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		recs, err := st.Experiments("fc")
		if err != nil {
			t.Fatal(err)
		}
		var out []campaign.OutcomeStatus
		for _, rec := range recs {
			if !rec.IsReference() {
				out = append(out, rec.Data.Outcome.Status)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("experiment %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunnerNeverInjectsReadOnlyBits(t *testing.T) {
	camp := fakeCampaign(50)
	camp.Locations = []string{"regs", "counter"} // counter is read-only
	st := storeWithCampaign(t, camp)
	r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(), WithSink(st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Experiments("fc")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		for _, b := range rec.Data.Fault.Bits {
			if b >= 48 {
				t.Errorf("experiment %s injected read-only bit %d", rec.Name, b)
			}
		}
	}
}

func TestRunnerStop(t *testing.T) {
	camp := fakeCampaign(1000)
	ts := newFakeTarget()
	var r *Runner
	var err error
	r, err = NewRunner(ts, SCIFI, camp, fakeTSD(), WithSink(rowHook(t, camp, nil, func(k int) {
		if k == 5 {
			r.Stop()
		}
	})))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Experiments < 5 || sum.Experiments > 6 {
		t.Errorf("ran %d experiments after stop at 5", sum.Experiments)
	}
}

func TestRunnerPauseResume(t *testing.T) {
	camp := fakeCampaign(10)
	ts := newFakeTarget()
	prog := telemetry.NewProgress(1)
	var r *Runner
	var err error
	r, err = NewRunner(ts, SCIFI, camp, fakeTSD(), WithTelemetry(nil, prog),
		WithSink(rowHook(t, camp, nil, func(k int) {
			if k == 3 {
				r.Pause()
			}
		})))
	if err != nil {
		t.Fatal(err)
	}
	sawPause := make(chan bool, 1)
	go func() {
		// Resume once the pause is visible, as the GUI restart button
		// would.
		sawPause <- waitPhase(prog, "paused")
		r.Resume()
	}()
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Experiments != 10 {
		t.Errorf("experiments = %d, want 10", sum.Experiments)
	}
	if !<-sawPause {
		t.Error("pause phase never reported")
	}
}

func TestRunnerContextCancel(t *testing.T) {
	camp := fakeCampaign(100000)
	ctx, cancel := context.WithCancel(context.Background())
	r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(), WithSink(rowHook(t, camp, nil, func(k int) {
		if k == 3 {
			cancel()
		}
	})))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunnerRerunSetsParent(t *testing.T) {
	camp := fakeCampaign(5)
	st := storeWithCampaign(t, camp)
	ts := newFakeTarget()
	r, err := NewRunner(ts, SCIFI, camp, fakeTSD(), WithSink(st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	origName := campaign.ExperimentName("fc", 2)
	orig, err := st.GetExperiment(origName)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := r.Rerun(origName, false)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st.GetExperiment(ex.Name)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Parent != origName {
		t.Errorf("parent = %q, want %q", rec.Parent, origName)
	}
	// Same fault, same outcome (deterministic target).
	if rec.Data.Outcome.Status != orig.Data.Outcome.Status {
		t.Errorf("rerun outcome %v != original %v", rec.Data.Outcome.Status, orig.Data.Outcome.Status)
	}
	if len(rec.Data.Fault.Bits) != len(orig.Data.Fault.Bits) || rec.Data.Fault.Bits[0] != orig.Data.Fault.Bits[0] {
		t.Errorf("rerun fault %v != original %v", rec.Data.Fault, orig.Data.Fault)
	}
	// A second rerun picks a fresh name.
	ex2, err := r.Rerun(origName, false)
	if err != nil {
		t.Fatal(err)
	}
	if ex2.Name == ex.Name {
		t.Errorf("rerun name collision: %q", ex2.Name)
	}
}

func TestRunnerValidation(t *testing.T) {
	camp := fakeCampaign(5)
	camp.TargetName = "other"
	if _, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD()); err == nil {
		t.Error("target-name mismatch accepted")
	}
	bad := fakeCampaign(0)
	if _, err := NewRunner(newFakeTarget(), SCIFI, bad, fakeTSD()); err == nil {
		t.Error("invalid campaign accepted")
	}
	// Locations selecting nothing fail at Run.
	camp2 := fakeCampaign(5)
	camp2.Locations = []string{"nonexistent"}
	r, err := NewRunner(newFakeTarget(), SCIFI, camp2, fakeTSD())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err == nil {
		t.Error("empty location selection accepted")
	}
}

func TestFrameworkEveryStubReportsItself(t *testing.T) {
	fw := &Framework{TargetName: "stub"}
	ex := &Experiment{Campaign: fakeCampaign(1)}
	calls := map[string]func(*Experiment) error{
		"InitTestCard":       fw.InitTestCard,
		"LoadWorkload":       fw.LoadWorkload,
		"WriteMemory":        fw.WriteMemory,
		"RunWorkload":        fw.RunWorkload,
		"WaitForBreakpoint":  fw.WaitForBreakpoint,
		"ReadScanChain":      fw.ReadScanChain,
		"WriteScanChain":     fw.WriteScanChain,
		"WaitForTermination": fw.WaitForTermination,
		"ReadMemory":         fw.ReadMemory,
	}
	for name, fn := range calls {
		err := fn(ex)
		var nie *NotImplementedError
		if !errors.As(err, &nie) || nie.Method != name {
			t.Errorf("%s stub error = %v", name, err)
		}
	}
	// An unnamed framework still produces a usable name.
	anon := &Framework{}
	if anon.Name() == "" {
		t.Error("empty name from unnamed framework")
	}
}

func TestFrameworkInjectFaultGuards(t *testing.T) {
	fw := &Framework{TargetName: "g"}
	// Without a fault: no-op.
	ex := &Experiment{Campaign: fakeCampaign(1)}
	if err := fw.InjectFault(ex); err != nil || ex.Injected {
		t.Errorf("nil fault: err=%v injected=%v", err, ex.Injected)
	}
	// With a fault but no scan vector: error.
	ex.Fault = &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{0}}
	if err := fw.InjectFault(ex); err == nil {
		t.Error("InjectFault without scan vector accepted")
	}
	// With an out-of-range fault: error.
	ex.ScanVector = bitvec.New(4)
	ex.Fault.Bits = []int{99}
	if err := fw.InjectFault(ex); err == nil {
		t.Error("out-of-range fault accepted")
	}
}

func TestExperimentScratch(t *testing.T) {
	ex := &Experiment{}
	if _, ok := ex.Scratch("missing"); ok {
		t.Error("scratch hit on empty map")
	}
	ex.PutScratch("k", 42)
	v, ok := ex.Scratch("k")
	if !ok || v.(int) != 42 {
		t.Errorf("scratch = %v, %v", v, ok)
	}
}

func TestInjectionFilterInRunner(t *testing.T) {
	camp := fakeCampaign(10)
	// Only accept faults in the first 8 bits, forcing redraws.
	r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(),
		WithInjectionFilter(func(f faultmodel.Fault, _ trigger.Spec) bool {
			return f.Bits[0] < 8
		}))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Skipped == 0 {
		t.Error("selective filter skipped nothing")
	}
	if sum.Experiments != 10 {
		t.Errorf("experiments = %d", sum.Experiments)
	}
}

func TestInjectionFilterRejectAllFails(t *testing.T) {
	camp := fakeCampaign(2)
	r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(),
		WithInjectionFilter(func(faultmodel.Fault, trigger.Spec) bool { return false }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err == nil {
		t.Error("reject-all filter did not error")
	}
}

func TestAlgorithmsRegistry(t *testing.T) {
	algs := Algorithms()
	for _, name := range []string{"scifi", "swifi-preruntime", "swifi-runtime", "pin-level"} {
		a, ok := algs[name]
		if !ok || a.Run == nil {
			t.Errorf("algorithm %q missing", name)
		}
	}
}
