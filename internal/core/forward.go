package core

import "goofi/internal/campaign"

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

// ForwardConfig switches checkpoint forwarding. The zero value enables
// it; set Disabled to opt out. The planner itself has no knobs: the
// checkpoint budget, byte budget and spacing floor below are constants,
// because no caller ever asked for other values.
type ForwardConfig struct {
	// Disabled turns checkpoint forwarding off entirely.
	Disabled bool
}

// Planner constants.
const (
	// DefaultMaxForwardCheckpoints is how many checkpoints a reference
	// run records at most.
	DefaultMaxForwardCheckpoints = 64
	// DefaultMaxForwardBytes bounds the checkpoint set size, counting only
	// fresh bytes (pages identical to the previous checkpoint are shared):
	// 32 MiB. Recording stops at the budget; later injection points run
	// cold beyond the last recorded checkpoint.
	DefaultMaxForwardBytes = 32 << 20
	// minForwardInterval is the smallest cycle spacing the planner emits;
	// below this the restore saves less than the snapshot costs.
	minForwardInterval = 64
	// forwardMargin is subtracted from a fixed trigger point so the
	// recorded checkpoint lands strictly before the firing boundary even
	// in the worst case (the longest THOR-S instruction, including two
	// cache-miss penalties, costs well under this many cycles).
	forwardMargin = 64
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
	// Horizon is the campaign's last injection point: a cycle count, or a
	// retired-instruction count when HorizonByInstret. The def-use table
	// and the join points have to describe the reference run up to it;
	// past it, and past the last planned cycle, the reference may stop
	// recording the table and skip a steady state to its end (scifi's
	// boundary.go).
	Horizon          uint64
	HorizonByInstret bool
	// NoDefUse says the reference run's def-use table is not wanted: the
	// campaign's algorithm is not prunable (its listing's shape), so the
	// pruner never asks it.
	NoDefUse bool
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
// may be shared read-only by every board worker of the run. A set may
// hold no checkpoints.
type ForwardSet struct {
	Campaign    string
	Checkpoints []*ForwardCheckpoint
	// Bytes is the total fresh-byte footprint after page sharing, the
	// rejoin record's included, plus the def-use table's.
	Bytes int
	// DefUse is the reference run's access trace; nil when the target
	// records none.
	DefUse DefUseTable
	// Rejoin is the target-private record of the reference run's iteration
	// boundaries and its end, opaque to core: a faulty run whose board
	// state comes back to the reference's at an iteration boundary ends
	// there, on the reference's end state (Experiment.Converged). nil when
	// the target records none.
	Rejoin any
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

// ForwardCalibrator is kept only as a name: the benchmark harness
// (bench/trace.go's calibratingTarget), which this module may not edit,
// still declares a decorator over it. Nothing in the tree implements or
// calls it since optimal checkpoint placement was removed; it goes when
// a change to the benchmark drops that decorator.
type ForwardCalibrator interface {
	ForwardCostCycles() uint64
}

// forwardPlan derives the checkpoint plan from the campaign definition,
// or nil when forwarding cannot apply: disabled by config, detail-mode
// logging (per-instruction traces must cover the whole run), a trigger
// whose firing depends on the execution prefix rather than a counter, or
// an algorithm without a waitForBreakpoint step (pre-runtime SWIFI: the
// fault is in before the first cycle, so no experiment shares a prefix
// with the reference run and nothing would ever restore). Placement is
// by interval: at most DefaultMaxForwardCheckpoints capture cycles evenly
// spaced over the injection window, or one just before a fixed trigger
// point. A plan may name no cycle at all (no checkpoint would pay): the
// reference run is still recorded, for its def-use table.
func (r *Runner) forwardPlan() *ForwardPlan {
	if r.fw.Disabled || r.camp.LogMode == campaign.LogDetail || !r.camp.Trigger.CycleMonotonic() ||
		!r.alg.hasStep(waitForBreakpoint.name) {
		return nil
	}
	plan := &ForwardPlan{Campaign: r.camp.Name, MaxBytes: DefaultMaxForwardBytes, NoDefUse: !r.alg.prunable}
	if r.camp.RandomWindow[1] > 0 && r.camp.Trigger.Kind == "cycle" {
		// Windowed injection times: spread checkpoints across the window
		// so every drawn injection cycle has a nearby restore point.
		lo, hi := r.camp.RandomWindow[0], r.camp.RandomWindow[1]
		interval := max((hi-lo)/DefaultMaxForwardCheckpoints, minForwardInterval)
		start := uint64(1)
		if lo > forwardMargin {
			start = lo - forwardMargin
		}
		for c := start; c < hi && len(plan.Cycles) < DefaultMaxForwardCheckpoints; c += interval {
			plan.Cycles = append(plan.Cycles, c)
		}
		plan.Horizon = hi
		return plan
	}
	at, byInstret, _ := r.camp.Trigger.ForwardPoint()
	plan.Horizon, plan.HorizonByInstret = at, byInstret
	if at > forwardMargin {
		// Fixed trigger point: one checkpoint just before it. For instret
		// triggers the margin still guarantees usability, since instret
		// never exceeds the cycle count.
		plan.Cycles = []uint64{at - forwardMargin}
	}
	return plan
}
