package scifi

import (
	"goofi/internal/core"
	"goofi/internal/envsim"
	"goofi/internal/scanchain"
	"goofi/internal/thor"
)

// Checkpoint forwarding on the THOR-S board. During the reference run the
// target captures full board snapshots — CPU (registers, memory, caches,
// counters, ports, trap handlers, pending detections), scan-chain
// controller state, iteration counter, accumulated outputs and the
// environment simulator — at the cycles the core planner chose. Faulty
// experiments restore the nearest snapshot at or before their injection
// cycle inside WaitForBreakpoint and emulate only the remainder. The
// fault-free prefix of a faulty experiment is identical to the reference
// run (the fault is applied only at the injection point), so a restored
// run is bit-exact with a cold one.
//
// The same reference run records thor's def-use table (thor/defuse.go)
// over the internal chain. It travels in the set with the checkpoints, so
// the runner can tell which planned injections provably change nothing
// and log those rows without a board (core/prune.go).

// boardState is the target-private payload of a core.ForwardCheckpoint.
// All fields are immutable after capture; CPU memory pages may be shared
// between consecutive checkpoints (copy-on-write at capture time) and the
// whole state may be restored concurrently onto many boards.
type boardState struct {
	cpu       *thor.Snapshot
	ctrl      scanchain.ControllerState
	iteration int
	// outputs is the target's accumulated outputs at capture.
	outputs []uint32
	// simState is the environment simulator's state, nil without one.
	simState any
}

// fwRecorder tracks checkpoint recording during one reference run.
type fwRecorder struct {
	plan *core.ForwardPlan
	idx  int // next plan point to capture
	set  *core.ForwardSet
	prev *thor.Snapshot // previous snapshot, for page sharing
	full bool           // byte budget exhausted; recording stopped
	// tail is the provisional horizon-guard checkpoint: the newest
	// boundary snapshot taken while later plan points were still
	// pending. The planner cannot know where the reference run ends
	// (iteration limits are workload-dependent), so plan points past
	// the end are unrecordable; if any remain when recording stops, the
	// guard is appended as a final checkpoint so injections beyond the
	// horizon restore from just before it instead of from the last
	// planned point that happened to fit.
	tail *core.ForwardCheckpoint
	// join is the join record the run is building, du the def-use table
	// once a steady-state skip took it off the CPU (boundary.go).
	join *rejoin
	du   *thor.DefUse
	// outputs is the run's outputs as of the newest capture. A recording
	// run only appends to its outputs, so every capture's are a prefix of
	// this one array, which the recorder only appends to.
	outputs []uint32
}

// checkpoint is a capture's ForwardCheckpoint and board state, allocated
// together.
type checkpoint struct {
	core.ForwardCheckpoint
	bs boardState
}

// ArmForwardRecording implements core.Forwarder.
func (t *Board) ArmForwardRecording(plan *core.ForwardPlan) {
	t.fwRec = &fwRecorder{plan: plan, set: &core.ForwardSet{Campaign: plan.Campaign}, join: &rejoin{}}
}

// defUse presents thor's def-use table, indexed by internal-chain bit
// like the campaign's faults, as the core.DefUseTable the pruner asks.
type defUse struct{ d *thor.DefUse }

func (u defUse) Chain() string { return internalChain }

func (u defUse) InjectionPoint(at uint64, byInstret bool) (idx int, cycle uint64, ok bool) {
	if idx, ok = u.d.Boundary(at, byInstret); ok {
		cycle = u.d.Boundaries[idx]
	}
	return idx, cycle, ok
}

func (u defUse) NextAccess(bit, idx int) core.Access {
	switch u.d.Next(bit, idx) {
	case thor.AccessNone:
		return core.AccessNone
	case thor.AccessWrite:
		return core.AccessWrite
	}
	return core.AccessRead
}

// TakeForwardSet implements core.Forwarder.
func (t *Board) TakeForwardSet() *core.ForwardSet {
	rec := t.fwRec
	t.fwRec = nil
	du := t.cpu.TakeDefUse()
	if rec == nil {
		return nil
	}
	if rec.du != nil {
		du = rec.du
	}
	if du != nil {
		rec.set.DefUse = defUse{du}
		rec.set.Bytes += du.Bytes()
	}
	// The reference run ended with plan points still pending: promote the
	// horizon guard so injections beyond the recording horizon restore
	// from the run's last boundary instead of from whichever earlier
	// planned point happened to fit before it.
	if rec.tail != nil && !rec.full && rec.idx < len(rec.plan.Cycles) {
		last := uint64(0)
		if n := len(rec.set.Checkpoints); n > 0 {
			last = rec.set.Checkpoints[n-1].Cycle
		}
		if rec.tail.Cycle > last &&
			(rec.plan.MaxBytes == 0 || rec.set.Bytes+rec.tail.Bytes <= rec.plan.MaxBytes) {
			rec.set.Checkpoints = append(rec.set.Checkpoints, rec.tail)
			rec.set.Bytes += rec.tail.Bytes
			mFwRecorded.Inc()
		}
	}
	if rec.join.end != nil {
		rec.set.Rejoin = rec.join
	}
	if len(rec.set.Checkpoints) == 0 && rec.set.DefUse == nil && rec.set.Rejoin == nil {
		return nil
	}
	return rec.set
}

// SetForwardSet implements core.Forwarder.
func (t *Board) SetForwardSet(set *core.ForwardSet) { t.fwSet = set }

// fwRecording reports whether this experiment is a recording reference
// run with plan points left to capture.
func (t *Board) fwRecording(ex *core.Experiment) bool {
	return t.fwRec != nil && !t.fwRec.full && t.fwRec.idx < len(t.fwRec.plan.Cycles) &&
		ex.IsReference()
}

// fwMaybeRecord captures a checkpoint when the reference run has reached
// the next planned cycle. It is called from the top of the termination
// loop, where the CPU is always at an instruction boundary in the Running
// state, so a restore resumes exactly where the reference continued.
func (t *Board) fwMaybeRecord(ex *core.Experiment) {
	if !t.fwRecording(ex) {
		return
	}
	rec := t.fwRec
	cy := t.cpu.Cycle()
	if cy < rec.plan.Cycles[rec.idx] {
		// Not yet at the next planned point: refresh the horizon guard
		// instead, in case the reference run terminates before reaching
		// it. Only the newest guard is kept.
		if rec.guardDue(cy) {
			rec.tail = t.fwCapture(ex)
		}
		return
	}
	// Consume every plan point this boundary covers; one snapshot serves
	// all of them.
	for rec.idx < len(rec.plan.Cycles) && rec.plan.Cycles[rec.idx] <= cy {
		rec.idx++
	}
	cp := t.fwCapture(ex)
	if rec.plan.MaxBytes > 0 && rec.set.Bytes+cp.Bytes > rec.plan.MaxBytes {
		rec.full = true
		return
	}
	rec.prev = cp.State.(*boardState).cpu
	rec.tail = nil // superseded: the guard never trails a planned point
	rec.set.Checkpoints = append(rec.set.Checkpoints, cp)
	rec.set.Bytes += cp.Bytes
	mFwRecorded.Inc()
}

// guardDue reports whether a loop top at cycle cy, short of the pending
// plan point, should refresh the horizon guard: when the newest capture,
// planned or guard, is half a plan interval old — the interval being the
// pending point's distance from the point before it (from cycle 0 for the
// first) — or a run slice old, whichever is less. A control loop reaches a
// loop top every iteration, several times per interval, and a capture is
// a 64-page compare plus a simulator snapshot: refreshed at every loop
// top, the guard cost the reference run two captures for every planned
// one. At this rate it costs one, midway between two planned points, and
// the set's last checkpoint trails the run's last loop top by less than
// half an interval, where a planned point promises an injection a whole
// one. The run-slice bound is for a plan whose next point lies far beyond
// the run's end (a fixed trigger the reference never reaches): loop tops
// are at most a slice apart, so a workload without iterations never
// refreshed its guard more often than that.
func (rec *fwRecorder) guardDue(cy uint64) bool {
	var prev, newest uint64
	if rec.idx > 0 {
		prev = rec.plan.Cycles[rec.idx-1]
	}
	if rec.tail != nil {
		newest = rec.tail.Cycle
	} else if n := len(rec.set.Checkpoints); n > 0 {
		newest = rec.set.Checkpoints[n-1].Cycle
	}
	return cy-newest >= min((rec.plan.Cycles[rec.idx]-prev)/2, runSlice)
}

// fwCapture builds a checkpoint of the current board state. Pages are
// shared against the previous *planned* checkpoint; the caller decides
// whether the capture joins the set immediately (a planned point) or
// provisionally (the horizon guard).
func (t *Board) fwCapture(ex *core.Experiment) *core.ForwardCheckpoint {
	rec := t.fwRec
	snap, fresh := t.cpu.SnapshotSharing(rec.prev)
	rec.outputs = append(rec.outputs, t.outputs[len(rec.outputs):]...)
	n := len(rec.outputs)
	cp := &checkpoint{
		ForwardCheckpoint: core.ForwardCheckpoint{Cycle: snap.Cycle, Instret: snap.Instret, Bytes: fresh},
		bs: boardState{
			cpu:       snap,
			ctrl:      t.ctrl.StateSnapshot(),
			iteration: t.iteration,
			outputs:   rec.outputs[:n:n],
		},
	}
	if t.sim != nil {
		cp.bs.simState = t.sim.SnapshotState()
	}
	cp.State = &cp.bs
	return &cp.ForwardCheckpoint
}

// fwSliceBudget shrinks a run-slice budget so the reference run stops at
// the next planned checkpoint cycle instead of overshooting it.
func (t *Board) fwSliceBudget(ex *core.Experiment, slice uint64) uint64 {
	if !t.fwRecording(ex) {
		return slice
	}
	next := t.fwRec.plan.Cycles[t.fwRec.idx]
	if cy := t.cpu.Cycle(); next > cy && next-cy < slice {
		return next - cy
	}
	return slice
}

// fwRestore fast-forwards a faulty experiment: it restores the nearest
// recorded checkpoint at or before the injection point, so the trigger
// wait emulates only the delta. Any disqualifying condition — no set, a
// non-cycle-monotonic trigger, detail-mode logging, an active pin-level
// force, a simulator state that does not restore — makes it a silent
// no-op and the experiment cold-starts.
func (t *Board) fwRestore(ex *core.Experiment) {
	if ex.IsReference() || !t.forwards(ex) || t.cpu.PinForceActive() {
		return
	}
	at, byInstret, ok := ex.Trigger.ForwardPoint()
	if !ok {
		return
	}
	cp := t.fwSet.Nearest(at, byInstret)
	if cp == nil {
		return
	}
	bs, ok := cp.State.(*boardState)
	if !ok {
		return
	}
	// Reconstruct the simulator first, in the board's second one: if that
	// fails the board state is untouched and the experiment proceeds cold.
	var sim envsim.Simulator
	if ex.Campaign.EnvSim != nil {
		fresh, err := t.simulator(ex, 1)
		if err != nil {
			return
		}
		if err := fresh.RestoreState(bs.simState); err != nil {
			return
		}
		sim = fresh
	}
	if err := t.cpu.Restore(bs.cpu); err != nil {
		return
	}
	t.ctrl.RestoreState(bs.ctrl)
	t.iteration = bs.iteration
	if sim != nil {
		t.sims[0], t.sims[1] = sim, t.sims[0]
	}
	t.sim = sim
	t.outputs = append(t.outputs[:0], bs.outputs...)
	ex.Forwarded = true
	ex.ForwardedFrom = cp.Cycle
	mFwRestores.Inc()
}
