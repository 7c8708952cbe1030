// Differential test for def-use fault-space pruning. One oracle: the same
// campaign with forwarding disabled, which records nothing and therefore
// emulates every experiment. Against it, a pruning run must store the
// same LoggedSystemState rows and render the same analysis report, byte
// for byte — pruning may only change how many experiments lease a board.
// Configurations that must never prune assert exactly zero.
package goofi_test

import (
	"encoding/json"
	"testing"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/pinlevel"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
	"goofi/internal/trigger"
)

// pruneRun is what one execution of a campaign left behind.
type pruneRun struct {
	sum    *core.Summary
	rows   []string
	report string
}

// runPruneCase executes camp on a fresh in-memory store.
func runPruneCase(t *testing.T, camp *campaign.Campaign, tsd *campaign.TargetSystemData,
	alg core.Algorithm, factory func() core.TargetSystem, opts ...core.RunnerOption) pruneRun {
	t.Helper()
	st, err := campaign.NewStore(sqldb.Open())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutTargetSystem(tsd); err != nil {
		t.Fatal(err)
	}
	sum, _ := runCampaign(t, st, tsd, factory(), alg, camp, opts...)
	recs, err := st.Experiments(camp.Name)
	if err != nil {
		t.Fatal(err)
	}
	out := pruneRun{sum: sum}
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out.rows = append(out.rows, string(b))
	}
	rep, err := analysis.AnalyzeAndStore(st, camp.Name)
	if err != nil {
		t.Fatal(err)
	}
	out.report = rep.Render()
	return out
}

// assertSameCampaign fails unless got stored and reports exactly what
// the oracle did.
func assertSameCampaign(t *testing.T, oracle, got pruneRun) {
	t.Helper()
	if len(got.rows) != len(oracle.rows) {
		t.Fatalf("%d rows, oracle has %d", len(got.rows), len(oracle.rows))
	}
	for i := range oracle.rows {
		if got.rows[i] != oracle.rows[i] {
			t.Errorf("row %d differs\noracle %s\npruned %s", i, oracle.rows[i], got.rows[i])
		}
	}
	if got.report != oracle.report {
		t.Errorf("analysis report differs\noracle:\n%s\npruned:\n%s", oracle.report, got.report)
	}
	if got.sum.Experiments != oracle.sum.Experiments || got.sum.Injected != oracle.sum.Injected {
		t.Errorf("summary: %d experiments / %d injected, oracle %d / %d", got.sum.Experiments,
			got.sum.Injected, oracle.sum.Experiments, oracle.sum.Injected)
	}
	for st, n := range oracle.sum.ByStatus {
		if got.sum.ByStatus[st] != n {
			t.Errorf("summary: %d %s, oracle %d", got.sum.ByStatus[st], st, n)
		}
	}
}

var noForwarding = core.WithForwarding(core.ForwardConfig{Disabled: true})

func TestPruneDifferential(t *testing.T) {
	scifiFactory := func() core.TargetSystem { return scifi.New(thor.DefaultConfig()) }
	scifiTSD := scifi.TargetSystemData("thor-board")

	cases := []struct {
		name string
		camp func() *campaign.Campaign
		opts []core.RunnerOption
		// prunes says whether the configuration may prune at all; one
		// that may must, or the case proves nothing.
		prunes bool
		// bothClasses additionally wants a latent and an overwritten one.
		bothClasses bool
	}{
		{name: "quickstart", camp: quickstartCampaign, prunes: true, bothClasses: true},
		{name: "E1", prunes: true, bothClasses: true,
			camp: func() *campaign.Campaign { return pidCampaign("e1", 200, 1) }},
		{name: "sort16-cpu", prunes: true,
			camp: func() *campaign.Campaign { return sortCampaign("sort", 150, 7, []string{"cpu"}) }},
		{name: "sort16-caches-3-boards", prunes: true,
			camp: func() *campaign.Campaign {
				return sortCampaign("sort-b3", 120, 11, []string{"cpu", "icache", "dcache"})
			},
			opts: []core.RunnerOption{core.WithBoards(3, scifiFactory)}},
		{name: "multi-bit", prunes: true,
			camp: func() *campaign.Campaign {
				c := pidCampaign("multi", 150, 5)
				c.FaultModel.Multiplicity = 3
				return c
			}},
		{name: "instret-trigger", prunes: true,
			camp: func() *campaign.Campaign {
				c := sortCampaign("instret", 80, 3, []string{"cpu", "dcache"})
				c.Trigger = trigger.Spec{Kind: "instret", Count: 700}
				c.RandomWindow = [2]uint64{}
				return c
			}},
		{name: "rtc-trigger-before-any-checkpoint", prunes: true,
			camp: func() *campaign.Campaign {
				// Fires at cycle 40, inside the forwarding margin: the set
				// holds a table and no checkpoint.
				c := sortCampaign("rtc", 60, 4, []string{"cpu"})
				c.Trigger = trigger.Spec{Kind: "rtc", Period: 20, Occurrence: 2}
				c.RandomWindow = [2]uint64{}
				return c
			}},
		{name: "trigger-past-the-end", prunes: true,
			camp: func() *campaign.Campaign {
				// sort16 halts a little before cycle 2,000: a good share
				// of these injection points is never reached.
				c := sortCampaign("late", 120, 13, []string{"cpu"})
				c.RandomWindow = [2]uint64{1_000, 3_000}
				return c
			}},
		{name: "timeout-ends-the-reference", prunes: true,
			camp: func() *campaign.Campaign {
				c := sortCampaign("timeout", 80, 17, []string{"cpu"})
				c.Termination.TimeoutCycles = 1_000
				return c
			}},
		{name: "stuck-at-0",
			camp: func() *campaign.Campaign {
				c := sortCampaign("sa0", 40, 19, []string{"cpu"})
				c.FaultModel = faultmodel.Spec{Kind: faultmodel.StuckAt0}
				return c
			}},
		{name: "intermittent",
			camp: func() *campaign.Campaign {
				c := pidCampaign("interm", 40, 23)
				c.FaultModel = faultmodel.Spec{Kind: faultmodel.Intermittent, ActiveProb: 0.5}
				return c
			}},
		{name: "detail-mode",
			camp: func() *campaign.Campaign {
				c := sortCampaign("detail", 6, 29, []string{"cpu"})
				c.RandomWindow = [2]uint64{10, 300}
				c.LogMode = campaign.LogDetail
				return c
			}},
		{name: "breakpoint-trigger",
			camp: func() *campaign.Campaign {
				c := sortCampaign("bp", 30, 31, []string{"cpu"})
				c.Trigger = trigger.Spec{Kind: "branch", Occurrence: 40}
				c.RandomWindow = [2]uint64{}
				return c
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oracle := runPruneCase(t, tc.camp(), scifiTSD, core.SCIFI, scifiFactory, noForwarding)
			if n := oracle.sum.Pruned.Total(); n != 0 {
				t.Fatalf("the oracle pruned %d experiments", n)
			}
			got := runPruneCase(t, tc.camp(), scifiTSD, core.SCIFI, scifiFactory, tc.opts...)
			assertSameCampaign(t, oracle, got)
			p := got.sum.Pruned
			switch {
			case !tc.prunes && p.Total() != 0:
				t.Errorf("pruned %d latent + %d overwritten in a configuration that must never prune",
					p.Latent, p.Overwritten)
			case tc.prunes && p.Total() == 0:
				t.Error("nothing was pruned: the case is vacuous")
			case tc.bothClasses && (p.Latent == 0 || p.Overwritten == 0):
				t.Errorf("pruned %d latent, %d overwritten: want both classes", p.Latent, p.Overwritten)
			}
			if p.Total() > got.sum.Injected {
				t.Errorf("pruned %d of %d injected: a trigger the workload never reached was guessed",
					p.Total(), got.sum.Injected)
			}
			if want := oracle.sum.CyclesEmulated; tc.prunes && got.sum.CyclesEmulated+got.sum.CyclesSaved >= want {
				t.Errorf("emulated %d + restored %d cycles, the oracle emulated %d",
					got.sum.CyclesEmulated, got.sum.CyclesSaved, want)
			}
			t.Logf("%d experiments: %d latent + %d overwritten pruned, %d emulated; cycles %d (oracle %d)",
				got.sum.Experiments, p.Latent, p.Overwritten, got.sum.Experiments-p.Total(),
				got.sum.CyclesEmulated, oracle.sum.CyclesEmulated)
		})
	}
}

// TestPrunePastTheEndIsEmulated pins the late-trigger case down to the
// experiment: every row the workload ended before injecting is one the
// pruner left alone.
func TestPrunePastTheEndIsEmulated(t *testing.T) {
	camp := sortCampaign("late-rows", 120, 13, []string{"cpu"})
	camp.RandomWindow = [2]uint64{1_000, 3_000}
	got := runPruneCase(t, camp, scifi.TargetSystemData("thor-board"), core.SCIFI,
		func() core.TargetSystem { return scifi.New(thor.DefaultConfig()) })
	missed := got.sum.Experiments - got.sum.Injected
	if missed == 0 || got.sum.Injected == 0 {
		t.Fatalf("%d of %d injected: the window must straddle the workload's end",
			got.sum.Injected, got.sum.Experiments)
	}
	if emulated := got.sum.Experiments - got.sum.Pruned.Total(); emulated < missed {
		t.Errorf("%d experiments never injected, only %d emulated", missed, emulated)
	}
}

// TestPruneNeverOnPinForce: the pin-level target embeds the SCIFI target
// and so records a def-use table, but its faults index the boundary
// register and act for a hold time. Nothing may be pruned, transient
// fault model or not.
func TestPruneNeverOnPinForce(t *testing.T) {
	mk := func() *campaign.Campaign {
		return &campaign.Campaign{
			Name:           "pins",
			TargetName:     "thor-pins",
			ChainName:      "boundary",
			Locations:      []string{"pin.data_in"},
			FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient},
			Trigger:        trigger.Spec{Kind: "cycle"},
			RandomWindow:   [2]uint64{10, 1600},
			NumExperiments: 40,
			Seed:           3,
			Termination:    campaign.Termination{TimeoutCycles: 100_000},
			Workload:       sortCampaign("", 0, 0, nil).Workload,
			LogMode:        campaign.LogNormal,
		}
	}
	tsd := pinlevel.TargetSystemData("thor-pins")
	factory := func() core.TargetSystem { return pinlevel.New(thor.DefaultConfig()) }
	oracle := runPruneCase(t, mk(), tsd, core.PinLevel, factory, noForwarding)
	got := runPruneCase(t, mk(), tsd, core.PinLevel, factory)
	assertSameCampaign(t, oracle, got)
	if n := got.sum.Pruned.Total(); n != 0 {
		t.Errorf("pruned %d pin-force experiments", n)
	}
}

// TestPruneE1ExactCounters pins what the E1 PID campaign (the definition
// BenchmarkCampaignPID runs; seed 1, one board, defaults) and pid-long's
// (n 2,400, seed 1001) prune, emulate, cut where they re-join the
// reference and skip at their steady state. All are counts the program
// makes of its own deterministic execution, so a change in any of them is
// a change in what gets emulated — in the planner's checkpoint cycles, the
// def-use table, the pruner or the boundary oracle — and has to be meant. Meant once since: E1's window
// (to cycle 8,000) reaches past its 80 iterations, so its experiments
// beyond the horizon restore the promoted horizon guard, and when the
// guard went from refreshed at every loop top to once per plan interval
// (scifi.guardDue) it came to lie up to an interval, not an iteration,
// short of the end: 187,759 → 191,143 and 40,277 → 40,961. And once more
// when a run that re-joins the reference came to end there (scifi's
// rejoin): one experiment of both plans does, 605 cycles before its end,
// so 191,143 → 190,538 and 40,961 → 40,356 emulated, the 605 counted as
// converged instead. pid-long's row was added when the reference's skipped
// steady stretch came to keep its join points (scifi's boundary oracle):
// 63 → 64 converged, 40 → 39 steady, 828,975 → 828,700 emulated.
func TestPruneE1ExactCounters(t *testing.T) {
	// pid-long is the benchmark's emulation-bound workload (CI's
	// converge-smoke runs the same definition through the CLI): all four
	// mechanisms — restore, prune, re-join and steady-state skip — at once.
	pidLong := pidCampaign("bench-pid-long", 2400, 1001)
	pidLong.Termination = campaign.Termination{TimeoutCycles: 4_000_000, MaxIterations: 1000}
	for _, tc := range []struct {
		name                string
		camp                *campaign.Campaign
		latent, overwritten int
		cyclesEmulated      uint64
		converged           int
		cyclesConverged     uint64
		steady              int
		cyclesSteady        uint64
	}{
		{name: "e1-200", camp: pidCampaign("bench-e1", 200, 1), latent: 83, overwritten: 1,
			cyclesEmulated: 190_538, converged: 1, cyclesConverged: 605},
		{name: "e1-40", camp: pidCampaign("bench-e1", 40, 1), latent: 14, overwritten: 0,
			cyclesEmulated: 40_356, converged: 1, cyclesConverged: 605},
		{name: "pid-long", camp: pidLong, latent: 1793, overwritten: 73, cyclesEmulated: 828_700,
			converged: 64, cyclesConverged: 3_197_040, steady: 39, cyclesSteady: 1_401_620},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, tsd := benchStore(t)
			sum, _ := runCampaign(t, st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, tc.camp)
			if sum.Pruned.Latent != tc.latent || sum.Pruned.Overwritten != tc.overwritten ||
				sum.CyclesEmulated != tc.cyclesEmulated ||
				sum.Converged != tc.converged || sum.CyclesConverged != tc.cyclesConverged ||
				sum.Steady != tc.steady || sum.CyclesSteady != tc.cyclesSteady {
				t.Errorf("pruned %d latent / %d overwritten, %d cycles emulated, %d converged (%d cycles), %d steady (%d cycles); want %d / %d / %d, %d (%d), %d (%d)",
					sum.Pruned.Latent, sum.Pruned.Overwritten, sum.CyclesEmulated, sum.Converged, sum.CyclesConverged,
					sum.Steady, sum.CyclesSteady,
					tc.latent, tc.overwritten, tc.cyclesEmulated, tc.converged, tc.cyclesConverged, tc.steady, tc.cyclesSteady)
			}
		})
	}
}
