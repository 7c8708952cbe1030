package core

import (
	"sort"

	"goofi/internal/campaign"
)

// Checkpoint-based fast-forwarding. Every experiment of a campaign
// executes the same deterministic fault-free prefix up to its injection
// point. The runner therefore records checkpoints of the board state at
// planner-chosen cycles during the reference run; each faulty experiment
// then restores the nearest checkpoint at or before its injection cycle
// and emulates only the delta, instead of replaying the whole prefix.
// When no usable checkpoint exists — forwarding disabled, a trigger whose
// firing depends on the execution prefix, pin-level forcing active — the
// experiment falls back transparently to a cold start. Logged results are
// byte-identical either way; only the emulated cycle count changes.

// ForwardConfig tunes checkpoint forwarding. The zero value enables
// forwarding with defaults; set Disabled to opt out.
type ForwardConfig struct {
	// Disabled turns checkpoint forwarding off entirely.
	Disabled bool
	// Interval is the cycle spacing between planned checkpoints; 0 picks
	// a spacing that spreads MaxCheckpoints over the injection window.
	Interval uint64
	// MaxCheckpoints caps how many checkpoints the experiments restore
	// from (<= 0 selects DefaultMaxForwardCheckpoints). Optimal placement
	// records up to twice as many candidates during the reference run
	// and keeps this many.
	MaxCheckpoints int
	// MaxBytes caps the memory the checkpoint set may hold, counting
	// only fresh bytes (pages identical to the previous checkpoint are
	// shared). <= 0 selects DefaultMaxForwardBytes. Recording stops when
	// the budget is reached; later injection points run cold beyond the
	// last recorded checkpoint.
	MaxBytes int
	// Placement selects the checkpoint placement strategy:
	// PlacementInterval (the default; evenly spaced over the injection
	// window) or PlacementOptimal (dynamic programming over the drawn
	// plan's injection-cycle histogram, minimising expected re-emulated
	// cycles under the MaxCheckpoints budget, then — once the reference
	// run has shown which experiments will be emulated at all — keeping
	// the recorded checkpoints that serve those best). Optimal placement
	// needs every planned trigger to watch the cycle counter; otherwise
	// the planner silently falls back to interval placement.
	Placement string
	// SnapshotCostCycles is the optimal planner's estimate of what one
	// checkpoint costs (capture during the reference run plus restores),
	// expressed in emulated-cycle equivalents: a checkpoint is only
	// worth placing when it saves more re-emulation than this. 0 asks
	// the target to calibrate itself (ForwardCalibrator) at plan time;
	// an explicit value makes placement fully deterministic, which CI
	// benchmarks rely on.
	SnapshotCostCycles uint64
}

// Placement strategy names for ForwardConfig.Placement.
const (
	PlacementInterval = "interval"
	PlacementOptimal  = "optimal"
)

// Planner defaults.
const (
	// DefaultMaxForwardCheckpoints bounds the checkpoint count when the
	// config does not.
	DefaultMaxForwardCheckpoints = 64
	// DefaultMaxForwardBytes bounds the checkpoint set size (fresh bytes
	// after page sharing) when the config does not: 32 MiB.
	DefaultMaxForwardBytes = 32 << 20
	// minForwardInterval is the smallest cycle spacing the planner emits;
	// below this the restore saves less than the snapshot costs.
	minForwardInterval = 64
	// forwardMargin is subtracted from a fixed trigger point so the
	// recorded checkpoint lands strictly before the firing boundary even
	// in the worst case (the longest THOR-S instruction, including two
	// cache-miss penalties, costs well under this many cycles).
	forwardMargin = 64
	// optimalForwardMargin is the tighter margin the optimal planner
	// uses. A capture requested at cycle p lands at the first
	// instruction boundary at or after p, overshooting by at most one
	// instruction minus one cycle; the costliest THOR-S instruction
	// (DIV at 12 cycles plus two 8-cycle cache-miss fills) is 28
	// cycles, so a checkpoint planned at t-32 is captured at a cycle
	// <= t-32+27 < t and is always usable for an injection at t.
	optimalForwardMargin = 32
	// DefaultSnapshotCostCycles is the per-checkpoint cost estimate when
	// neither the config nor the target supplies one; calibrators also
	// fall back to it when their measurement fails.
	DefaultSnapshotCostCycles = 128
	// maxForwardDPBuckets bounds the optimal planner's histogram size:
	// above this many distinct injection cycles, adjacent cycles are
	// merged into buckets (keyed by their smallest cycle, with exact
	// weight and weighted-cycle sums) so the O(n^2*k) DP stays cheap.
	maxForwardDPBuckets = 512
)

// ForwardPlan tells a recording target at which cycles of the reference
// run to capture checkpoints.
type ForwardPlan struct {
	// Campaign names the campaign the plan belongs to; a ForwardSet is
	// only usable by experiments of the same campaign.
	Campaign string
	// Cycles are the planned capture cycles, strictly ascending. The
	// target captures at the first instruction boundary at or after each
	// point.
	Cycles []uint64
	// MaxBytes caps the set's fresh-byte footprint; recording stops at
	// the budget.
	MaxBytes int
	// Placement names the strategy that produced the plan ("interval"
	// or "optimal"), echoed into the campaign summary.
	Placement string
	// PredictedDelta is the planner's expectation of the total
	// re-emulated cycles across the drawn plan under this checkpoint
	// placement (conservative: it assumes every capture overshoots by
	// the full margin). The summary reports the achieved total next to
	// it.
	PredictedDelta uint64
}

// ForwardCheckpoint is one recorded restore point. State is the
// target-private board snapshot (opaque to core); Cycle and Instret are
// the counter values at capture, used to select the nearest usable
// checkpoint for an injection point. Bytes counts the fresh bytes this
// checkpoint added beyond what it shares with its predecessor.
type ForwardCheckpoint struct {
	Cycle   uint64
	Instret uint64
	Bytes   int
	State   any
}

// ForwardSet is everything a campaign's reference run recorded for the
// experiments that follow: the checkpoint set and, for fault-space
// pruning (prune.go), the run's def-use table and result. All of it is
// immutable after recording — checkpoints ascend by cycle — so one set
// may be shared read-only by every board worker, and carried by a shard
// worker from one lease to the next. A set may hold no checkpoints.
type ForwardSet struct {
	Campaign    string
	Checkpoints []*ForwardCheckpoint
	// Bytes is the total fresh-byte footprint after page sharing, plus
	// the def-use table's.
	Bytes int
	// DefUse is the reference run's access trace; nil when the target
	// records none.
	DefUse DefUseTable
	// Reference is the reference run's result, filled in by the runner.
	Reference *Result
}

// Nearest returns the last checkpoint whose counter (cycle, or instret
// when byInstret) is at or before at, or nil when none qualifies. Both
// counters increase strictly across instruction boundaries, so a
// checkpoint at exactly `at` is the firing boundary itself and restoring
// it is exact.
func (s *ForwardSet) Nearest(at uint64, byInstret bool) *ForwardCheckpoint {
	var best *ForwardCheckpoint
	for _, cp := range s.Checkpoints {
		c := cp.Cycle
		if byInstret {
			c = cp.Instret
		}
		if c > at {
			break
		}
		best = cp
	}
	return best
}

// Forwarder is the optional TargetSystem extension for checkpoint
// forwarding. The runner arms recording on the board that executes the
// reference run, takes the recorded set afterwards, and hands it to every
// board worker; targets that do not implement Forwarder simply run every
// experiment cold.
type Forwarder interface {
	// ArmForwardRecording prepares the target to record checkpoints at
	// the plan's cycles during the next reference run.
	ArmForwardRecording(plan *ForwardPlan)
	// TakeForwardSet returns the set recorded since ArmForwardRecording
	// and disarms recording; nil when nothing was recorded. A set with a
	// def-use table but no checkpoint is something.
	TakeForwardSet() *ForwardSet
	// SetForwardSet installs a recorded set for use by subsequent
	// experiments on this target.
	SetForwardSet(set *ForwardSet)
}

// ForwardCalibrator is the optional target extension the optimal
// placement planner uses to price a checkpoint: ForwardCostCycles
// estimates what recording and restoring one checkpoint costs,
// expressed in emulated-cycle equivalents, by measuring the target's
// actual snapshot wall time against its emulation speed.
type ForwardCalibrator interface {
	ForwardCostCycles() uint64
}

// forwardPlan derives the checkpoint plan from the campaign definition
// and the drawn injection plan, or nil when forwarding cannot apply:
// disabled by config, detail-mode logging (per-instruction traces must
// cover the whole run), or a trigger whose firing depends on the
// execution prefix rather than a counter. A plan may name no cycle at
// all (no checkpoint would pay): the reference run is still recorded,
// for its def-use table. calib prices checkpoints for the optimal
// planner; it may be nil.
func (r *Runner) forwardPlan(planned []plannedExperiment, calib ForwardCalibrator) *ForwardPlan {
	if r.fw.Disabled {
		return nil
	}
	if r.camp.LogMode == campaign.LogDetail {
		return nil
	}
	if !r.camp.Trigger.CycleMonotonic() {
		return nil
	}
	maxCp := r.maxForwardCheckpoints()
	maxBytes := r.fw.MaxBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxForwardBytes
	}
	if r.fw.Placement == PlacementOptimal {
		if hist, ok := forwardHistogramOf(planned); ok {
			snap := r.fw.SnapshotCostCycles
			if snap == 0 {
				snap = uint64(DefaultSnapshotCostCycles)
				if calib != nil {
					snap = calib.ForwardCostCycles()
				}
			}
			if plan := optimalForwardPlan(hist, maxCp, snap); plan != nil {
				plan.Campaign = r.camp.Name
				plan.MaxBytes = maxBytes
				return plan
			}
		}
		// Fall through to interval placement: the drawn plan has
		// triggers the DP cannot model (instret-watching or mixed).
	}
	plan := &ForwardPlan{Campaign: r.camp.Name, MaxBytes: maxBytes, Placement: PlacementInterval,
		Cycles: r.intervalForwardCycles(maxCp)}
	if hist, ok := forwardHistogramOf(planned); ok {
		plan.PredictedDelta = forwardPredictedDelta(plan.Cycles, hist)
	}
	return plan
}

// maxForwardCheckpoints is the campaign's checkpoint budget.
func (r *Runner) maxForwardCheckpoints() int {
	if r.fw.MaxCheckpoints > 0 {
		return r.fw.MaxCheckpoints
	}
	return DefaultMaxForwardCheckpoints
}

// intervalForwardCycles is interval placement: at most maxCp capture
// cycles, evenly spaced over the injection window, or one just before a
// fixed trigger point.
func (r *Runner) intervalForwardCycles(maxCp int) []uint64 {
	var cycles []uint64
	if r.camp.RandomWindow[1] > 0 && r.camp.Trigger.Kind == "cycle" {
		// Windowed injection times: spread checkpoints across the window
		// so every drawn injection cycle has a nearby restore point.
		lo, hi := r.camp.RandomWindow[0], r.camp.RandomWindow[1]
		interval := r.fw.Interval
		if interval == 0 {
			interval = (hi - lo) / uint64(maxCp)
		}
		if interval < minForwardInterval {
			interval = minForwardInterval
		}
		start := uint64(1)
		if lo > forwardMargin {
			start = lo - forwardMargin
		}
		for c := start; c < hi && len(cycles) < maxCp; c += interval {
			cycles = append(cycles, c)
		}
	} else {
		// Fixed trigger point: one checkpoint just before it. For
		// instret triggers the margin still guarantees usability, since
		// instret never exceeds the cycle count.
		if at, _, _ := r.camp.Trigger.ForwardPoint(); at > forwardMargin {
			cycles = []uint64{at - forwardMargin}
		}
	}
	return cycles
}

// forwardHistogram is the drawn plan's injection-cycle distribution,
// bucketed for the DP: cycles are distinct and ascending, weights count
// experiments per bucket, and wcycles holds the exact weighted cycle
// sum per bucket (so bucket merging loses no cost precision — only
// candidate checkpoint positions).
type forwardHistogram struct {
	cycles  []uint64
	weights []uint64
	wcycles []uint64
}

// forwardHistogramOf builds the histogram from the drawn plan. ok is
// false when any planned trigger is not a pure cycle-counter threshold
// (the DP's cost model would not be valid for it) or the plan is empty.
func forwardHistogramOf(planned []plannedExperiment) (forwardHistogram, bool) {
	ts := make([]uint64, 0, len(planned))
	for i := range planned {
		at, byInstret, ok := planned[i].trig.ForwardPoint()
		if !ok || byInstret {
			return forwardHistogram{}, false
		}
		ts = append(ts, at)
	}
	if len(ts) == 0 {
		return forwardHistogram{}, false
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	var h forwardHistogram
	for _, t := range ts {
		if n := len(h.cycles); n > 0 && h.cycles[n-1] == t {
			h.weights[n-1]++
			h.wcycles[n-1] += t
		} else {
			h.cycles = append(h.cycles, t)
			h.weights = append(h.weights, 1)
			h.wcycles = append(h.wcycles, t)
		}
	}
	if len(h.cycles) > maxForwardDPBuckets {
		h = h.rebucket(maxForwardDPBuckets)
	}
	return h, true
}

// rebucket merges adjacent distinct cycles into at most n buckets. Each
// bucket keeps its smallest cycle as the representative (the DP places
// checkpoints relative to representatives, so every point in the bucket
// still satisfies the margin) and the exact weight / weighted-cycle
// sums for cost bookkeeping.
func (h forwardHistogram) rebucket(n int) forwardHistogram {
	per := (len(h.cycles) + n - 1) / n
	out := forwardHistogram{}
	for i := 0; i < len(h.cycles); i += per {
		j := min(i+per, len(h.cycles))
		var w, wt uint64
		for k := i; k < j; k++ {
			w += h.weights[k]
			wt += h.wcycles[k]
		}
		out.cycles = append(out.cycles, h.cycles[i])
		out.weights = append(out.weights, w)
		out.wcycles = append(out.wcycles, wt)
	}
	return out
}

// optimalForwardPlan chooses checkpoint cycles minimising the model
// cost: the cold prefix replays in full, every other injection point t
// restores the last checkpoint planned at or before t-margin and
// re-emulates the difference, and each checkpoint placed costs
// snapCost. Candidate positions are t_a - margin for each bucket
// representative t_a (an exchange argument shows restricting to these
// loses nothing: shifting any checkpoint right to the next candidate
// serves the same points no farther from their restore point). The DP
// is exact over the bucketed histogram, so the resulting plan is never
// worse than interval placement under the same model — pinned by
// TestOptimalPlacementNeverWorseThanInterval.
func optimalForwardPlan(h forwardHistogram, maxCp int, snapCost uint64) *ForwardPlan {
	const m = optimalForwardMargin
	n := len(h.cycles)
	if n == 0 {
		return nil
	}
	// Prefix sums over buckets: W = weights, WT = weighted cycles.
	W := make([]uint64, n+1)
	WT := make([]uint64, n+1)
	for i := 0; i < n; i++ {
		W[i+1] = W[i] + h.weights[i]
		WT[i+1] = WT[i] + h.wcycles[i]
	}
	// groupCost(a, j): buckets a..j (1-based) all restore a checkpoint
	// at h.cycles[a-1]-m; each point t re-emulates t - p cycles.
	groupCost := func(a, j int) uint64 {
		p := h.cycles[a-1] - m
		return (WT[j] - WT[a-1]) - p*(W[j]-W[a-1])
	}
	// f[k][j]: minimal cost of the first j buckets using at most k
	// checkpoints, where the buckets after the last checkpoint's group
	// must be covered by it (matching the runtime rule: an experiment
	// always restores the nearest preceding checkpoint). Cold execution
	// is only possible for a prefix (k==0 over that prefix).
	if maxCp < 1 {
		return nil
	}
	f := make([][]uint64, maxCp+1)
	from := make([][]int, maxCp+1) // group start a, or 0 for "inherit f[k-1][j]"
	for k := 0; k <= maxCp; k++ {
		f[k] = make([]uint64, n+1)
		from[k] = make([]int, n+1)
	}
	for j := 1; j <= n; j++ {
		f[0][j] = WT[j] // everything cold
	}
	for k := 1; k <= maxCp; k++ {
		for j := 1; j <= n; j++ {
			best, bestA := f[k-1][j], 0
			for a := 1; a <= j; a++ {
				if h.cycles[a-1] <= m {
					continue // no room for the margin before this point
				}
				if c := f[k-1][a-1] + snapCost + groupCost(a, j); c < best {
					best, bestA = c, a
				}
			}
			f[k][j], from[k][j] = best, bestA
		}
	}
	// Reconstruct the checkpoint cycles from the DP choices.
	var cycles []uint64
	k, j := maxCp, n
	for j > 0 && k > 0 {
		a := from[k][j]
		if a == 0 {
			k--
			continue
		}
		cycles = append(cycles, h.cycles[a-1]-m)
		j = a - 1
		k--
	}
	if len(cycles) == 0 {
		return nil // checkpoints never paid for themselves
	}
	// Reverse into ascending order.
	for i, jj := 0, len(cycles)-1; i < jj; i, jj = i+1, jj-1 {
		cycles[i], cycles[jj] = cycles[jj], cycles[i]
	}
	return &ForwardPlan{
		Cycles:         cycles,
		Placement:      PlacementOptimal,
		PredictedDelta: forwardPredictedDelta(cycles, h),
	}
}

// forwardPredictedDelta evaluates a checkpoint plan against a histogram
// under the common conservative model: an injection at cycle t restores
// the last checkpoint planned at or before t-optimalForwardMargin, or
// replays from cycle 0 when none exists, and re-emulates the
// difference. Both placement strategies are scored with this one
// evaluator, which is what makes their PredictedDelta values (and the
// never-worse property test) comparable.
func forwardPredictedDelta(cycles []uint64, h forwardHistogram) uint64 {
	var total uint64
	for i, t := range h.cycles {
		var p, found = uint64(0), false
		for _, c := range cycles {
			if c+optimalForwardMargin <= t {
				p, found = c, true
			} else {
				break
			}
		}
		if found {
			total += (h.wcycles[i] - h.weights[i]*t) + h.weights[i]*(t-p)
		} else {
			total += h.wcycles[i]
		}
	}
	return total
}

// Optimal placement plans before the reference run, over every drawn
// injection point; which of them will be emulated at all is known only
// after it, from the def-use table the same run records (prune.go). A
// plan that is optimal for all the points can be worse than interval
// placement on the ones that are left. So the reference run of an
// optimally placed campaign records candidates — the DP's cycles and
// interval placement's — and the runner then keeps, within the same
// checkpoint budget, the recorded checkpoints that save the most over
// the experiments that will run. Interval placement's set is one of the
// choices, which makes "optimal never emulates more cycles than
// interval" hold for the emulated cycles themselves, not only under the
// planner's model — as long as the byte budget does not cut recording
// short.

// forwardCandidates widens an optimal plan to the candidate cycles the
// reference run records at.
func (r *Runner) forwardCandidates(plan *ForwardPlan) *ForwardPlan {
	wide := *plan
	wide.Cycles = mergeCycles(plan.Cycles, r.intervalForwardCycles(r.maxForwardCheckpoints()))
	return &wide
}

// mergeCycles merges two strictly ascending cycle lists into one.
func mergeCycles(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || (len(a) > 0 && a[0] < b[0]):
			out, a = append(out, a[0]), a[1:]
		case len(a) == 0 || b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return out
}

// emulatedForwardPoints lists, ascending, the injection cycles of the
// planned experiments the pruner cannot answer. It covers the whole
// plan, not one shard's range, so every worker of a sharded campaign
// keeps the same checkpoints.
func emulatedForwardPoints(planned []plannedExperiment, prune *pruner) []uint64 {
	var points []uint64
	for i := range planned {
		at, byInstret, ok := planned[i].trig.ForwardPoint()
		if !ok || byInstret {
			continue
		}
		if class, _, _ := prune.classify(&planned[i]); class == NotPruned {
			points = append(points, at)
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	return points
}

// keepBestCheckpoints returns the at most keep checkpoints of cps
// (ascending by cycle) that maximise the cycles saved over points (the
// ascending injection cycles of the experiments to emulate), under the
// runtime rule that an experiment restores the last kept checkpoint at or
// before its injection cycle. With c_i the capture cycles and P(i) the
// number of points at or after c_i, a kept set i_1 < … < i_k saves
// Σ c_ij · (P(i_j) − P(i_j+1)); the DP runs from the right over "i is
// the first kept checkpoint, j more may follow".
func keepBestCheckpoints(cps []*ForwardCheckpoint, points []uint64, keep int) []*ForwardCheckpoint {
	m := len(cps)
	if m <= keep {
		return cps
	}
	if keep <= 0 {
		return nil
	}
	// after[i] = P(i); after[m] = 0.
	after := make([]uint64, m+1)
	for i, cp := range cps {
		first := sort.Search(len(points), func(k int) bool { return points[k] >= cp.Cycle })
		after[i] = uint64(len(points) - first)
	}
	// best[j][i]: most cycles saved over the points at or after c_i when
	// i is kept and at most j checkpoints after i are; next[j][i] is the
	// following kept index, or m for none.
	best := make([][]uint64, keep)
	next := make([][]int, keep)
	for j := 0; j < keep; j++ {
		best[j] = make([]uint64, m)
		next[j] = make([]int, m)
		for i := m - 1; i >= 0; i-- {
			best[j][i], next[j][i] = cps[i].Cycle*after[i], m
			if j == 0 {
				continue
			}
			for n := i + 1; n < m; n++ {
				if v := cps[i].Cycle*(after[i]-after[n]) + best[j-1][n]; v > best[j][i] {
					best[j][i], next[j][i] = v, n
				}
			}
		}
	}
	first := 0
	for i := 1; i < m; i++ {
		if best[keep-1][i] > best[keep-1][first] {
			first = i
		}
	}
	kept := make([]*ForwardCheckpoint, 0, keep)
	for i, j := first, keep-1; i < m; i, j = next[j][i], j-1 {
		kept = append(kept, cps[i])
	}
	return kept
}
