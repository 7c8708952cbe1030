package swifi

import (
	"context"
	"testing"

	"goofi/internal/analysis"
	"goofi/internal/asm"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

func sortImageSize(t *testing.T) int {
	t.Helper()
	prog, err := asm.Assemble(workload.Sort().Source)
	if err != nil {
		t.Fatal(err)
	}
	return len(prog.Image)
}

func swifiCampaign(t *testing.T, name string, n int, seed int64, runtime bool) *campaign.Campaign {
	t.Helper()
	c := &campaign.Campaign{
		Name:           name,
		TargetName:     "thor-swifi",
		ChainName:      MemoryChainName,
		Locations:      []string{"mem"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient},
		Trigger:        trigger.Spec{Kind: "cycle", Cycle: 1},
		NumExperiments: n,
		Seed:           seed,
		Termination:    campaign.Termination{TimeoutCycles: 100_000},
		Workload:       workload.Sort(),
		LogMode:        campaign.LogNormal,
	}
	if runtime {
		c.RandomWindow = [2]uint64{10, 1600}
	}
	return c
}

func runCampaign(t *testing.T, alg core.Algorithm, camp *campaign.Campaign) (*core.Summary, *campaign.Store) {
	t.Helper()
	st, err := campaign.NewStore(sqldb.Open())
	if err != nil {
		t.Fatal(err)
	}
	tsd := TargetSystemData("thor-swifi", sortImageSize(t))
	if err := st.PutTargetSystem(tsd); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign(camp); err != nil {
		t.Fatal(err)
	}
	r, err := core.NewRunner(New(thor.DefaultConfig()), alg, camp, tsd, core.WithSink(st))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sum, st
}

func TestMemoryMap(t *testing.T) {
	m := MemoryMap(64)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Length != 512 {
		t.Errorf("length = %d, want 512", m.Length)
	}
	loc, err := m.Find("mem.0004")
	if err != nil || loc.Offset != 32 {
		t.Errorf("mem.0004 = %+v, %v", loc, err)
	}
	// Unaligned size rounds up to a whole word.
	if MemoryMap(5).Length != 64 {
		t.Errorf("MemoryMap(5).Length = %d, want 64", MemoryMap(5).Length)
	}
}

func TestReverseByte(t *testing.T) {
	cases := map[byte]byte{0x00: 0x00, 0xFF: 0xFF, 0x80: 0x01, 0x01: 0x80, 0xA5: 0xA5, 0xC3: 0xC3, 0x12: 0x48}
	for in, want := range cases {
		if got := reverseByte(in); got != want {
			t.Errorf("reverseByte(%#02x) = %#02x, want %#02x", in, got, want)
		}
	}
}

func TestPreRuntimeImageMutation(t *testing.T) {
	// Bit 0 of the fault space is the MSB of the word at address 0.
	tgt := New(thor.DefaultConfig())
	camp := swifiCampaign(t, "img", 1, 1, false)
	ex := &core.Experiment{
		Campaign: camp, Seq: 0, Name: "img/exp00000",
		Fault: &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{0}},
	}
	if err := tgt.InitTestCard(ex); err != nil {
		t.Fatal(err)
	}
	if err := tgt.LoadWorkload(ex); err != nil {
		t.Fatal(err)
	}
	orig := tgt.image[0]
	if err := tgt.InjectFault(ex); err != nil {
		t.Fatal(err)
	}
	if tgt.image[0] != orig^0x80 {
		t.Errorf("image[0] = %#02x, want %#02x (MSB flip)", tgt.image[0], orig^0x80)
	}
}

func TestPreRuntimeCampaign(t *testing.T) {
	sum, st := runCampaign(t, core.PreRuntimeSWIFI, swifiCampaign(t, "pre", 40, 9, false))
	if sum.Experiments != 40 || sum.Injected != 40 {
		t.Fatalf("summary = %+v", sum)
	}
	// Image bit-flips frequently corrupt instructions: expect a healthy
	// share of detections (illegal opcode etc.) plus completed runs.
	if sum.ByStatus[campaign.OutcomeDetected] == 0 {
		t.Errorf("no detections from 40 code-image flips: %+v", sum.ByStatus)
	}
	recs, err := st.Experiments("pre")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 41 {
		t.Errorf("records = %d", len(recs))
	}
}

func TestRuntimeCampaign(t *testing.T) {
	sum, _ := runCampaign(t, core.RuntimeSWIFI, swifiCampaign(t, "rt", 30, 17, true))
	if sum.Experiments != 30 {
		t.Fatalf("summary = %+v", sum)
	}
	total := 0
	for _, n := range sum.ByStatus {
		total += n
	}
	if total != 30 {
		t.Errorf("status total = %d", total)
	}
}

func TestRuntimeInjectionTimingRecorded(t *testing.T) {
	camp := swifiCampaign(t, "timing", 10, 23, true)
	_, st := runCampaign(t, core.RuntimeSWIFI, camp)
	recs, err := st.Experiments("timing")
	if err != nil {
		t.Fatal(err)
	}
	sawInjection := false
	for _, rec := range recs {
		if rec.IsReference() {
			continue
		}
		if rec.Data.Injected && rec.Data.InjectionCycle > 0 {
			sawInjection = true
		}
	}
	if !sawInjection {
		t.Error("no runtime injection recorded a cycle")
	}
}

func TestSWIFIDeterminism(t *testing.T) {
	outcomes := func() map[campaign.OutcomeStatus]int {
		sum, _ := runCampaign(t, core.PreRuntimeSWIFI, swifiCampaign(t, "d", 20, 5, false))
		return sum.ByStatus
	}
	a, b := outcomes(), outcomes()
	for k, v := range a {
		if b[k] != v {
			t.Errorf("status %v: %d vs %d", k, v, b[k])
		}
	}
}

func TestPreRuntimeDoesNotWaitForBreakpoint(t *testing.T) {
	tgt := New(thor.DefaultConfig())
	if err := tgt.WaitForBreakpoint(&core.Experiment{}); err == nil {
		t.Error("pre-runtime WaitForBreakpoint did not error")
	}
}

// TestDetailModeLogsTrace: on the shared board a SWIFI campaign in detail
// mode, and a detail re-run of a SWIFI experiment, log the per-instruction
// trace a SCIFI one does, and the propagation analysis reads it. The forked
// driver had no trace hook: both logged zero step rows.
func TestDetailModeLogsTrace(t *testing.T) {
	steps := func(st *campaign.Store, name string) {
		t.Helper()
		trace, err := st.Trace(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(trace) < 100 || len(trace[0].State.Scan) == 0 {
			t.Fatalf("%s: %d trace steps, expected hundreds with scan state", name, len(trace))
		}
	}
	for _, alg := range []core.Algorithm{core.PreRuntimeSWIFI, core.RuntimeSWIFI} {
		camp := swifiCampaign(t, "detail", 3, 5, alg.Name == core.RuntimeSWIFI.Name)
		camp.LogMode = campaign.LogDetail
		camp.Termination.TimeoutCycles = 30_000
		_, st := runCampaign(t, alg, camp)
		name := campaign.ExperimentName("detail", 0)
		steps(st, name)
		if p, err := analysis.PropagationCurve(st, name); err != nil || p.Steps == 0 {
			t.Errorf("%s: propagation curve %+v, %v", alg.Name, p, err)
		}
	}

	camp := swifiCampaign(t, "rerun", 6, 13, true)
	_, st := runCampaign(t, core.RuntimeSWIFI, camp)
	r, err := core.NewRunner(New(thor.DefaultConfig()), core.RuntimeSWIFI, camp,
		TargetSystemData("thor-swifi", sortImageSize(t)), core.WithSink(st))
	if err != nil {
		t.Fatal(err)
	}
	orig := campaign.ExperimentName("rerun", 2)
	ex, err := r.Rerun(orig, true)
	if err != nil {
		t.Fatal(err)
	}
	steps(st, ex.Name)
	if rec, err := st.GetExperiment(ex.Name); err != nil || rec.Parent != orig {
		t.Errorf("detail re-run %s: parent %q, %v; want %q", ex.Name, rec.Parent, err, orig)
	}
}
