// Def-use pruning beyond the matrix's byte-identity: which experiments may
// be pruned at all, and the exact counts the benchmark campaigns prune,
// emulate, cut and skip. TestConformance's prunes and bothClasses columns
// hold the pruned rows to the oracle's.
package goofi_test

import (
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/scifi"
	"goofi/internal/thor"
	"goofi/internal/workload"
)

var noForwarding = core.WithForwarding(core.ForwardConfig{Disabled: true})

// TestPrunePastTheEndIsEmulated pins the late-trigger case down to the
// experiment: every row the workload ended before injecting is one the
// pruner left alone.
func TestPrunePastTheEndIsEmulated(t *testing.T) {
	sp := &spec{camp: with(sortCampaign("late-rows", 120, 13, []string{"cpu"}), func(c *campaign.Campaign) {
		c.RandomWindow = [2]uint64{1_000, 3_000}
	})}
	got := sp.run(t, sp.runSpec(1)).sum
	missed := got.Experiments - got.Injected
	if missed == 0 || got.Injected == 0 {
		t.Fatalf("%d of %d injected: the window must straddle the workload's end", got.Injected, got.Experiments)
	}
	if emulated := got.Experiments - got.Pruned.Total(); emulated < missed {
		t.Errorf("%d experiments never injected, only %d emulated", missed, emulated)
	}
}

// TestPruneNeverOnPinForce: the pin-level target embeds the SCIFI target
// and so records a def-use table, but its faults index the boundary
// register and act for a hold time. Nothing may be pruned, transient
// fault model or not.
func TestPruneNeverOnPinForce(t *testing.T) {
	sp := &spec{kind: "pin-level", camp: with(sortCampaign("pins", 40, 3, nil), onPins)}
	cold := sp.runSpec(1)
	cold.NoForward = true
	got := sp.run(t, sp.runSpec(1))
	sameOutcome(t, sp.run(t, cold), got)
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
		{name: "pid-long", camp: pidLongCampaign("bench-pid-long", 2400), latent: 1793, overwritten: 73, cyclesEmulated: 828_700,
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

// TestDefUseOnlyWherePruned: a reference run records its def-use table
// only for an algorithm whose listing is prunable (SCIFI's shape). Pin-level
// and runtime SWIFI campaigns forward, and their sets hold checkpoints but
// no table; their rows are the ones the matrix's technique specs pin.
func TestDefUseOnlyWherePruned(t *testing.T) {
	for _, sp := range []*spec{
		{name: "scifi", camp: sortCampaign("du-scifi", 60, 3, []string{"cpu"}), prunes: true},
		{name: "pin-level", kind: "pin-level", camp: with(sortCampaign("du-pins", 60, 3, nil), onPins)},
		{name: "swifi-runtime", kind: "swifi-runtime", params: image(workload.Sort()),
			camp: with(sortCampaign("du-swifi", 60, 17, nil), onSwifi)},
	} {
		t.Run(sp.name, func(t *testing.T) {
			got := sp.run(t, sp.runSpec(1))
			if got.set == nil || len(got.set.Checkpoints) == 0 {
				t.Fatalf("the reference run recorded no checkpoints (%+v)", got.set)
			}
			if (got.set.DefUse != nil) != sp.prunes {
				t.Errorf("def-use table recorded: %v, want %v", got.set.DefUse != nil, sp.prunes)
			}
			if pruned := got.sum.Pruned.Total() > 0; pruned != sp.prunes {
				t.Errorf("%d experiments pruned", got.sum.Pruned.Total())
			}
		})
	}
}
