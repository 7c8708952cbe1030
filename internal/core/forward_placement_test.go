package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"goofi/internal/trigger"
)

// placementRunner builds a runner over a windowed cycle-trigger campaign
// so both placement strategies are exercised through the real
// forwardPlan entry point.
func placementRunner(t *testing.T, n int, lo, hi uint64, fw ForwardConfig) *Runner {
	t.Helper()
	camp := fakeCampaign(n)
	camp.RandomWindow = [2]uint64{lo, hi}
	r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD())
	if err != nil {
		t.Fatal(err)
	}
	r.fw = fw
	return r
}

func plannedAt(cycles []uint64) []plannedExperiment {
	out := make([]plannedExperiment, len(cycles))
	for i, c := range cycles {
		out[i] = plannedExperiment{seq: i, trig: trigger.Spec{Kind: "cycle", Cycle: c}}
	}
	return out
}

// modelCost is the placement cost model both strategies are scored
// under: predicted re-emulation plus the per-checkpoint price. A nil
// plan means everything runs cold.
func modelCost(plan *ForwardPlan, h forwardHistogram, snapCost uint64) uint64 {
	if plan == nil {
		var total uint64
		for _, wt := range h.wcycles {
			total += wt
		}
		return total
	}
	return forwardPredictedDelta(plan.Cycles, h) + uint64(len(plan.Cycles))*snapCost
}

// TestOptimalPlacementNeverWorseThanInterval is the planner's core
// property: on random injection histograms, the DP's plan never costs
// more than interval placement under the shared cost model (the DP is
// exact over candidate positions, and any plan can be shifted onto
// candidates without increasing cost).
func TestOptimalPlacementNeverWorseThanInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		lo := uint64(1 + rng.Intn(2000))
		hi := lo + uint64(100+rng.Intn(200_000))
		n := 1 + rng.Intn(120)
		snapCost := uint64(64 + rng.Intn(512))
		maxCp := 1 + rng.Intn(24)
		cycles := make([]uint64, n)
		for i := range cycles {
			// Mix uniform draws with tight clusters, the regime where
			// interval placement wastes checkpoints on empty spans.
			if rng.Intn(3) == 0 && i > 0 {
				cycles[i] = cycles[i-1] + uint64(rng.Intn(40))
				if cycles[i] >= hi {
					cycles[i] = hi - 1
				}
			} else {
				cycles[i] = lo + uint64(rng.Int63n(int64(hi-lo)))
			}
		}
		planned := plannedAt(cycles)
		hist, ok := forwardHistogramOf(planned)
		if !ok {
			t.Fatalf("trial %d: histogram rejected a pure cycle plan", trial)
		}

		fw := ForwardConfig{MaxCheckpoints: maxCp, SnapshotCostCycles: snapCost}
		r := placementRunner(t, n, lo, hi, fw)
		intPlan := r.forwardPlan(planned, nil)
		r.fw.Placement = PlacementOptimal
		optPlan := r.forwardPlan(planned, nil)

		ic := modelCost(intPlan, hist, snapCost)
		oc := modelCost(optPlan, hist, snapCost)
		if oc > ic {
			t.Fatalf("trial %d (n=%d window=[%d,%d) k=%d snap=%d): optimal cost %d > interval cost %d",
				trial, n, lo, hi, maxCp, snapCost, oc, ic)
		}
		if optPlan != nil {
			if optPlan.Placement != PlacementOptimal {
				t.Fatalf("trial %d: placement label %q", trial, optPlan.Placement)
			}
			if len(optPlan.Cycles) > maxCp {
				t.Fatalf("trial %d: %d checkpoints over budget %d", trial, len(optPlan.Cycles), maxCp)
			}
			if got, want := optPlan.PredictedDelta, forwardPredictedDelta(optPlan.Cycles, hist); got != want {
				t.Fatalf("trial %d: PredictedDelta %d, evaluator says %d", trial, got, want)
			}
			for i := 1; i < len(optPlan.Cycles); i++ {
				if optPlan.Cycles[i] <= optPlan.Cycles[i-1] {
					t.Fatalf("trial %d: plan cycles not strictly ascending: %v", trial, optPlan.Cycles)
				}
			}
		}
	}
}

// TestOptimalPlacementKnownOptimum pins the DP on a hand-checkable
// histogram: two tight clusters far apart, two checkpoints allowed.
// The optimal plan puts one checkpoint at the margin before each
// cluster head; every injection then re-emulates only the margin plus
// its offset within the cluster.
func TestOptimalPlacementKnownOptimum(t *testing.T) {
	cycles := []uint64{10_000, 10_010, 10_020, 90_000, 90_010, 90_020}
	planned := plannedAt(cycles)
	hist, _ := forwardHistogramOf(planned)
	plan := optimalForwardPlan(hist, 2, 128)
	if plan == nil {
		t.Fatal("planner declined a clearly profitable histogram")
	}
	want := []uint64{10_000 - optimalForwardMargin, 90_000 - optimalForwardMargin}
	if len(plan.Cycles) != 2 || plan.Cycles[0] != want[0] || plan.Cycles[1] != want[1] {
		t.Fatalf("plan cycles %v, want %v", plan.Cycles, want)
	}
	// Each cluster: margin + {0,10,20} re-emulated.
	wantDelta := uint64(2 * (3*optimalForwardMargin + 0 + 10 + 20))
	if plan.PredictedDelta != wantDelta {
		t.Fatalf("PredictedDelta %d, want %d", plan.PredictedDelta, wantDelta)
	}
}

// TestOptimalPlacementUnprofitable: when one checkpoint would cost more
// than it could ever save, the DP must decline to place any.
func TestOptimalPlacementUnprofitable(t *testing.T) {
	// One injection at cycle 40: a checkpoint at 40-32=8 saves 8 cycles
	// of re-emulation but costs 128.
	hist, _ := forwardHistogramOf(plannedAt([]uint64{40}))
	if plan := optimalForwardPlan(hist, 4, 128); plan != nil {
		t.Fatalf("planner placed unprofitable checkpoints: %v", plan.Cycles)
	}
}

// TestOptimalPlacementInstretFallsBack: a plan containing any
// instret-watching trigger cannot be modelled by the cycle-histogram
// DP, so forwardPlan must fall back to interval placement.
func TestOptimalPlacementInstretFallsBack(t *testing.T) {
	planned := plannedAt([]uint64{5_000, 9_000})
	planned = append(planned, plannedExperiment{seq: 2, trig: trigger.Spec{Kind: "instret", Count: 100}})
	if _, ok := forwardHistogramOf(planned); ok {
		t.Fatal("histogram accepted an instret trigger")
	}
	r := placementRunner(t, 3, 1_000, 10_000,
		ForwardConfig{Placement: PlacementOptimal, MaxCheckpoints: 8, SnapshotCostCycles: 128})
	plan := r.forwardPlan(planned, nil)
	if plan == nil {
		t.Fatal("no fallback plan")
	}
	if plan.Placement != PlacementInterval {
		t.Fatalf("placement %q, want interval fallback", plan.Placement)
	}
}

// TestForwardMarginBoundary pins the usability rule at its exact edges:
// a checkpoint at cycle c serves an injection at t iff c + margin <= t.
// The margin absorbs capture overshoot (the snapshot lands at the first
// instruction boundary at or after c, at most one instruction later),
// so equality is usable and one cycle past it is not.
func TestForwardMarginBoundary(t *testing.T) {
	const m = optimalForwardMargin
	cp := []uint64{1000}
	cases := []struct {
		at   uint64
		cold bool
	}{
		{1000 + m, false},     // exactly margin after: usable
		{1000 + m + 1, false}, // just past: usable
		{1000 + m - 1, true},  // one cycle short of margin: cold
		{1000, true},          // at the checkpoint itself: cold
		{999, true},           // before it: cold
	}
	for _, tc := range cases {
		hist, _ := forwardHistogramOf(plannedAt([]uint64{tc.at}))
		delta := forwardPredictedDelta(cp, hist)
		wantDelta := tc.at // cold replays everything
		if !tc.cold {
			wantDelta = tc.at - cp[0]
		}
		if delta != wantDelta {
			t.Errorf("injection at %d with checkpoint at %d: delta %d, want %d (cold=%v)",
				tc.at, cp[0], delta, wantDelta, tc.cold)
		}
	}
	// The DP's own placements respect the margin: a point with
	// t <= margin has no room for a checkpoint and must stay cold.
	hist, _ := forwardHistogramOf(plannedAt([]uint64{m, m / 2}))
	if plan := optimalForwardPlan(hist, 4, 1); plan != nil {
		for _, c := range plan.Cycles {
			if c+m > m {
				t.Fatalf("checkpoint at %d cannot serve any planned point", c)
			}
		}
	}
}

// savedBy scores a kept checkpoint set the way the runtime uses it: each
// point restores the last checkpoint at or before it.
func savedBy(kept []*ForwardCheckpoint, points []uint64) uint64 {
	set := &ForwardSet{Checkpoints: kept}
	var saved uint64
	for _, at := range points {
		if cp := set.Nearest(at, false); cp != nil {
			saved += cp.Cycle
		}
	}
	return saved
}

// TestKeepBestCheckpointsIsExhaustiveOptimum: on small random instances
// the kept set saves exactly as much as the best of all subsets within
// the budget — so in particular never less than any one of them, such as
// interval placement's share of the recorded candidates.
func TestKeepBestCheckpointsIsExhaustiveOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(10)
		cps := make([]*ForwardCheckpoint, 0, m)
		for c := uint64(0); len(cps) < m; {
			c += uint64(1 + rng.Intn(500))
			cps = append(cps, &ForwardCheckpoint{Cycle: c})
		}
		points := make([]uint64, rng.Intn(30))
		for i := range points {
			points[i] = uint64(rng.Intn(5500))
		}
		sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
		keep := rng.Intn(m + 2)

		kept := keepBestCheckpoints(cps, points, keep)
		if len(kept) > keep {
			t.Fatalf("trial %d: kept %d checkpoints, budget %d", trial, len(kept), keep)
		}
		for i := 1; i < len(kept); i++ {
			if kept[i].Cycle <= kept[i-1].Cycle {
				t.Fatalf("trial %d: kept set not ascending", trial)
			}
		}
		var want uint64
		for mask := 0; mask < 1<<m; mask++ {
			var sub []*ForwardCheckpoint
			for i := 0; i < m; i++ {
				if mask&(1<<i) != 0 {
					sub = append(sub, cps[i])
				}
			}
			if len(sub) <= keep {
				want = max(want, savedBy(sub, points))
			}
		}
		if got := savedBy(kept, points); got != want {
			t.Fatalf("trial %d (m=%d keep=%d, %d points): kept set saves %d, best subset %d",
				trial, m, keep, len(points), got, want)
		}
	}
}

// TestMergeCycles: the candidate list is the ascending union.
func TestMergeCycles(t *testing.T) {
	got := mergeCycles([]uint64{5, 20, 30}, []uint64{1, 20, 25, 40})
	want := []uint64{1, 5, 20, 25, 30, 40}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	if got := mergeCycles(nil, []uint64{3}); !reflect.DeepEqual(got, []uint64{3}) {
		t.Fatalf("merged %v, want [3]", got)
	}
}
