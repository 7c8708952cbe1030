package preinject

import (
	"context"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

func sortCampaign(name string, n int, seed int64) *campaign.Campaign {
	return &campaign.Campaign{
		Name:           name,
		TargetName:     "thor-board",
		ChainName:      "internal",
		Locations:      []string{"cpu.r0", "cpu.r1", "cpu.r2", "cpu.r3", "cpu.r4", "cpu.r5", "cpu.r6", "cpu.r7", "cpu.r8", "cpu.r9", "cpu.r10", "cpu.r11", "cpu.r12", "cpu.r13"},
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

func TestAnalyzeSortWorkload(t *testing.T) {
	camp := sortCampaign("pa", 1, 1)
	a, err := AnalyzeWorkload(thor.DefaultConfig(), camp)
	if err != nil {
		t.Fatal(err)
	}
	if a.EndCycle == 0 || a.Instrs == 0 {
		t.Fatalf("analysis empty: %+v", a)
	}
	// r1 is the sort's loop counter: live through most of the run.
	if !a.LiveAt(1, a.EndCycle/2) {
		t.Error("loop counter r1 not live mid-run")
	}
	// r8 is never used by the sort workload: always dead.
	if a.LiveAt(8, a.EndCycle/2) {
		t.Error("unused register r8 reported live")
	}
	// After the end of the run nothing is live.
	if a.LiveAt(1, a.EndCycle+1000) {
		t.Error("register live after termination")
	}
	frac := a.LiveFraction(100)
	if frac <= 0 || frac >= 1 {
		t.Errorf("live fraction = %g, want strictly between 0 and 1", frac)
	}
}

func TestBitLiveMapping(t *testing.T) {
	camp := sortCampaign("pb", 1, 1)
	a, err := AnalyzeWorkload(thor.DefaultConfig(), camp)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := thor.ScanFieldByName("cpu.r1")
	if err != nil {
		t.Fatal(err)
	}
	live, known := a.BitLive(f1.Offset+3, a.EndCycle/2)
	if !known || !live {
		t.Errorf("r1 bit: live=%v known=%v", live, known)
	}
	f8, err := thor.ScanFieldByName("cpu.r8")
	if err != nil {
		t.Fatal(err)
	}
	live, known = a.BitLive(f8.Offset, a.EndCycle/2)
	if !known || live {
		t.Errorf("r8 bit: live=%v known=%v", live, known)
	}
	// Cache bits are unknown and conservatively kept.
	fc, err := thor.ScanFieldByName("icache.line0.word0")
	if err != nil {
		t.Fatal(err)
	}
	live, known = a.BitLive(fc.Offset, 100)
	if known || !live {
		t.Errorf("cache bit: live=%v known=%v", live, known)
	}
}

func TestFilterImprovesEffectiveness(t *testing.T) {
	// E5 shape: with pre-injection analysis the overwritten share drops
	// and the effective yield per experiment rises.
	runWith := func(name string, filter bool) (*core.Summary, *campaign.Store) {
		camp := sortCampaign(name, 60, 17)
		st, err := campaign.NewStore(sqldb.Open())
		if err != nil {
			t.Fatal(err)
		}
		tsd := scifi.TargetSystemData("thor-board")
		if err := st.PutTargetSystem(tsd); err != nil {
			t.Fatal(err)
		}
		if err := st.PutCampaign(camp); err != nil {
			t.Fatal(err)
		}
		opts := []core.RunnerOption{core.WithSink(st)}
		if filter {
			a, err := AnalyzeWorkload(thor.DefaultConfig(), camp)
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, core.WithInjectionFilter(a.Filter()))
		}
		r, err := core.NewRunner(scifi.New(thor.DefaultConfig()), core.SCIFI, camp, tsd, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return sum, st
	}
	plain, _ := runWith("plain", false)
	filtered, _ := runWith("filtered", true)
	if filtered.Skipped == 0 {
		t.Error("filter skipped nothing; analysis has no effect")
	}
	if plain.Skipped != 0 {
		t.Error("unfiltered run skipped draws")
	}
	// The filtered campaign should produce at least as many effective
	// (detected) outcomes.
	if filtered.ByStatus[campaign.OutcomeDetected] < plain.ByStatus[campaign.OutcomeDetected] {
		t.Logf("note: filtered detected %d < plain %d (statistical, not fatal)",
			filtered.ByStatus[campaign.OutcomeDetected], plain.ByStatus[campaign.OutcomeDetected])
	}
}

func TestFilterKeepsNonCycleTriggers(t *testing.T) {
	camp := sortCampaign("pc", 1, 1)
	a, err := AnalyzeWorkload(thor.DefaultConfig(), camp)
	if err != nil {
		t.Fatal(err)
	}
	filter := a.Filter()
	deadReg, err := thor.ScanFieldByName("cpu.r8")
	if err != nil {
		t.Fatal(err)
	}
	f := faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{deadReg.Offset}}
	if filter(f, trigger.Spec{Kind: "cycle", Cycle: a.EndCycle / 2}) {
		t.Error("dead-register cycle injection kept")
	}
	if !filter(f, trigger.Spec{Kind: "branch", Occurrence: 3}) {
		t.Error("non-cycle trigger rejected")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	camp := sortCampaign("pe", 1, 1)
	camp.Workload.Source = "bogus"
	if _, err := AnalyzeWorkload(thor.DefaultConfig(), camp); err == nil {
		t.Error("bad workload accepted")
	}
	// Missing recovery handler symbol.
	camp2 := sortCampaign("pe2", 1, 1)
	camp2.Workload.RecoveryHandlers = map[uint16]string{1: "nowhere"}
	if _, err := AnalyzeWorkload(thor.DefaultConfig(), camp2); err == nil {
		t.Error("missing recovery handler accepted")
	}
	// Unknown environment simulator.
	camp3 := sortCampaign("pe3", 1, 1)
	camp3.EnvSim = &campaign.EnvSimSpec{Name: "ghost"}
	if _, err := AnalyzeWorkload(thor.DefaultConfig(), camp3); err == nil {
		t.Error("unknown env simulator accepted")
	}
}

func TestAnalyzeClosedLoopWorkload(t *testing.T) {
	// The analysis follows the environment-simulator protocol: iteration
	// boundaries exchange data, the max-iterations limit ends the trace.
	camp := &campaign.Campaign{
		Name:           "pid-analysis",
		TargetName:     "thor-board",
		ChainName:      "internal",
		Locations:      []string{"cpu.r1"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient},
		Trigger:        trigger.Spec{Kind: "cycle", Cycle: 100},
		NumExperiments: 1,
		Seed:           1,
		Termination:    campaign.Termination{TimeoutCycles: 200_000, MaxIterations: 20},
		Workload:       workload.PIDAssert(),
		EnvSim:         &campaign.EnvSimSpec{Name: "first-order-plant"},
		LogMode:        campaign.LogNormal,
	}
	a, err := AnalyzeWorkload(thor.DefaultConfig(), camp)
	if err != nil {
		t.Fatal(err)
	}
	if a.EndCycle == 0 || a.Instrs == 0 {
		t.Fatalf("empty analysis: %+v", a)
	}
	// r4 (the integrator) is written then read each iteration: live
	// between iterations.
	if !a.LiveAt(4, a.EndCycle/2) {
		t.Error("integrator register not live mid-run")
	}
	// Timeout exit path: a tiny cycle budget ends the analysis early.
	camp.Termination = campaign.Termination{TimeoutCycles: 200}
	short, err := AnalyzeWorkload(thor.DefaultConfig(), camp)
	if err != nil {
		t.Fatal(err)
	}
	if short.EndCycle < 200 {
		t.Errorf("timeout analysis ended at %d", short.EndCycle)
	}
}

func TestAnalyzeDetectsReferenceFault(t *testing.T) {
	// A workload that traps during the reference run is a configuration
	// error the analysis must surface.
	camp := sortCampaign("pf", 1, 1)
	camp.Workload.Source = "trap 1"
	if _, err := AnalyzeWorkload(thor.DefaultConfig(), camp); err == nil {
		t.Error("detected reference run accepted")
	}
}
