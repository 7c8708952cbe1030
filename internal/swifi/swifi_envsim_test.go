package swifi

import (
	"context"
	"testing"

	"goofi/internal/asm"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// pidSwifiCampaign builds a runtime-SWIFI campaign on the closed-loop PID
// workload, exercising the environment-simulator exchange, iteration
// limits and recovery handlers in the SWIFI target.
func pidSwifiCampaign(t *testing.T, name string, n int, seed int64, hardened bool) *campaign.Campaign {
	t.Helper()
	wl := workload.PID()
	if hardened {
		wl = workload.PIDAssert()
	}
	return &campaign.Campaign{
		Name:           name,
		TargetName:     "thor-swifi-pid",
		ChainName:      MemoryChainName,
		Locations:      []string{"mem"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient},
		Trigger:        trigger.Spec{Kind: "cycle"},
		RandomWindow:   [2]uint64{100, 4000},
		NumExperiments: n,
		Seed:           seed,
		Termination:    campaign.Termination{TimeoutCycles: 200_000, MaxIterations: 40},
		Workload:       wl,
		EnvSim:         &campaign.EnvSimSpec{Name: "first-order-plant"},
		LogMode:        campaign.LogNormal,
	}
}

func runPIDSwifi(t *testing.T, camp *campaign.Campaign) (*core.Summary, *campaign.Store) {
	t.Helper()
	imgSize, err := asm.ImageSize(camp.Workload.Source)
	if err != nil {
		t.Fatal(err)
	}
	st, err := campaign.NewStore(sqldb.Open())
	if err != nil {
		t.Fatal(err)
	}
	tsd := TargetSystemData("thor-swifi-pid", imgSize)
	if err := st.PutTargetSystem(tsd); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign(camp); err != nil {
		t.Fatal(err)
	}
	tgt := New(thor.DefaultConfig())
	r, err := core.NewRunner(tgt, core.RuntimeSWIFI, camp, tsd, core.WithSink(st))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sum, st
}

func TestRuntimeSWIFIWithEnvSimulator(t *testing.T) {
	camp := pidSwifiCampaign(t, "swifi-pid", 15, 5, false)
	sum, st := runPIDSwifi(t, camp)
	if sum.Experiments != 15 {
		t.Fatalf("experiments = %d", sum.Experiments)
	}
	// The reference run exchanges data with the plant for exactly 40
	// iterations and completes.
	ref, err := st.GetExperiment(campaign.ReferenceName("swifi-pid"))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Data.Outcome.Status != campaign.OutcomeCompleted {
		t.Fatalf("reference outcome = %+v", ref.Data.Outcome)
	}
	if ref.Data.Outcome.Iterations != 40 {
		t.Errorf("reference iterations = %d, want 40", ref.Data.Outcome.Iterations)
	}
	if len(ref.State.Outputs[workload.PortOut]) != 40 {
		t.Errorf("reference outputs = %d, want 40", len(ref.State.Outputs[workload.PortOut]))
	}
}

func TestRuntimeSWIFIRecoveryHandlers(t *testing.T) {
	camp := pidSwifiCampaign(t, "swifi-pid-h", 15, 9, true)
	sum, st := runPIDSwifi(t, camp)
	if sum.Experiments != 15 {
		t.Fatalf("experiments = %d", sum.Experiments)
	}
	// The hardened workload must at least run its reference cleanly
	// with the handler installed (no assertion halt).
	ref, err := st.GetExperiment(campaign.ReferenceName("swifi-pid-h"))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Data.Outcome.Status != campaign.OutcomeCompleted {
		t.Errorf("hardened reference outcome = %+v", ref.Data.Outcome)
	}
}

func TestImageSizeAndCPUAccessors(t *testing.T) {
	n, err := asm.ImageSize(workload.Sort().Source)
	if err != nil || n != sortImageSize(t) {
		t.Errorf("ImageSize = %d, %v", n, err)
	}
	tgt := New(thor.DefaultConfig())
	if tgt.CPU() == nil {
		t.Error("CPU accessor returned nil")
	}
}

func TestWordAtBounds(t *testing.T) {
	mem := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	w, err := wordAt(mem, 4)
	if err != nil || w != 0x05060708 {
		t.Errorf("wordAt = %#x, %v", w, err)
	}
	if _, err := wordAt(mem, 6); err == nil {
		t.Error("out-of-bounds word accepted")
	}
}

func TestExtendForFault(t *testing.T) {
	img := []byte{1, 2, 3, 4}
	out := extendForFault(img, []int{0})
	if len(out) != 4 {
		t.Errorf("no-op extend changed length to %d", len(out))
	}
	out = extendForFault(img, []int{100}) // bit 100 = word 3 = bytes [12,16)
	if len(out) != 16 {
		t.Errorf("extended length = %d, want 16", len(out))
	}
	if out[0] != 1 || out[15] != 0 {
		t.Error("extension corrupted or did not zero-fill")
	}
}
