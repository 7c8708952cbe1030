package scifi

import (
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/envsim"
	"goofi/internal/thor"
)

// The convergence cut-off. A transient fault in a closed loop is often
// flushed out within a few iterations: the board state at an iteration
// boundary is the reference run's again, but for the free-running counters
// (cycle, instret, cache hits and misses), which stand at a constant
// offset — a fault that sent the run down a longer or shorter path leaves
// it a few cycles late or early. No instruction reads those counters, and
// the watchdog reads only cycle − lastKick (thor.Shift), so from there on
// the run is the reference's, shifted: the board restores the reference's
// end state, moves its counters, cycle stamps and pending detection by the
// offset, splices its own outputs and events with the reference's suffix
// of them, and ends the run with the reference's outcome. What the listing
// reads afterwards — the scan chain, the result memory — is what emulating
// to the end would have left, so the row is the same bytes.
//
// The reference run records what that takes: a join point at every
// iteration boundary from the forward plan's first point on (no faulty run
// of the campaign is injected earlier), and its end state. A faulty run
// compares itself to the same iteration's join point after every exchange
// of its termination loop, unless its fault is reasserted (the run is never
// the reference's again), it traces every instruction (detail mode), or a
// pin force is on. The cut is refused when the reference timed out, or
// when its end moved by the offset would reach the time-out: the run would
// have timed out on the way.

// joinPoint is the reference run's board state after one iteration's
// exchange. While the reference's state repeats up to a shift — a control
// loop at its set point — consecutive join points share one snapshot, each
// with its own shift from it, so a long steady run costs a few words an
// iteration, not a snapshot.
type joinPoint struct {
	cpu   *thor.Snapshot
	shift thor.Shift // of the reference's counters from cpu's
	// events and outputs are how many detection events and drained
	// outputs the reference had at this point.
	events, outputs int
	// simState is the simulator's state; nil for a run without one.
	simState any
}

// rejoin is the reference run's record for the cut-off, held in the
// forward set (core.ForwardSet.Rejoin).
type rejoin struct {
	first  int // the iteration of points[0]
	points []joinPoint
	// The reference run's end: board state after its last outputs were
	// drained, iteration count, every output and how it ended.
	end       *thor.Snapshot
	iteration int
	outputs   []uint32
	status    campaign.OutcomeStatus
	bytes     int  // the record's share of the set's Bytes
	off       bool // recording stopped: the byte budget, or a simulator that cannot snapshot
}

// joinPointBytes is what a join point costs beyond any snapshot it
// captures: the struct and a simulator state.
const joinPointBytes = 160

// fwRecordJoin records the reference run's join point for the iteration
// that just ended, after its exchange — from the plan's first point on: no
// faulty run is injected before it.
func (t *Board) fwRecordJoin(ex *core.Experiment) {
	if t.fwRec == nil || !ex.IsReference() {
		return
	}
	j, plan := t.fwRec.join, t.fwRec.plan
	if j.off || len(plan.Cycles) > 0 && t.cpu.Cycle() < plan.Cycles[0] {
		return
	}
	jp := joinPoint{events: t.cpu.NumEvents(), outputs: len(t.outputs)}
	if t.sim != nil {
		ss, ok := t.sim.(envsim.Snapshotter)
		if !ok {
			// Nothing to compare a faulty run's simulator with.
			j.off = true
			return
		}
		jp.simState = ss.SnapshotState()
	}
	cost := joinPointBytes
	var prev *thor.Snapshot
	if n := len(j.points); n > 0 {
		prev = j.points[n-1].cpu
		if d, ok := t.cpu.Rejoins(prev); ok {
			jp.cpu, jp.shift = prev, d
		}
	} else {
		j.first = t.iteration
	}
	if jp.cpu == nil {
		snap, fresh := t.cpu.SnapshotSharing(prev)
		jp.cpu, cost = snap, cost+fresh
	}
	if !t.fwJoinFits(cost, true) {
		return
	}
	j.points = append(j.points, jp)
}

// fwJoinFits charges cost bytes of the rejoin record to the set, or stops
// join-point recording when they would exceed the set's byte budget — or,
// for a join point, take the record past half of it: a reference that
// never settles must not crowd out the checkpoints planned late in the
// window, and the end state must find room after the last join point.
func (t *Board) fwJoinFits(cost int, point bool) bool {
	rec := t.fwRec
	budget := rec.plan.MaxBytes
	if budget > 0 && (rec.set.Bytes+cost > budget || point && rec.join.bytes+cost > budget/2) {
		rec.join.off = true
		return false
	}
	rec.set.Bytes += cost
	rec.join.bytes += cost
	return true
}

// fwRecordEnd records how the reference run ended, once finishOutcome has
// drained its last outputs. A reference that timed out leaves nothing to
// rejoin (a shifted run would time out elsewhere), and neither does one
// whose end state exceeds the budget: its join points are given back.
func (t *Board) fwRecordEnd(ex *core.Experiment, status campaign.OutcomeStatus) {
	if t.fwRec == nil || !ex.IsReference() {
		return
	}
	j := t.fwRec.join
	if len(j.points) > 0 && status != campaign.OutcomeTimeout {
		end, fresh := t.cpu.SnapshotSharing(j.points[len(j.points)-1].cpu)
		if t.fwJoinFits(fresh, false) {
			j.end, j.iteration, j.status = end, t.iteration, status
			j.outputs = append([]uint32(nil), t.outputs...)
			return
		}
	}
	t.fwRec.set.Bytes -= j.bytes
	t.fwRec.join = &rejoin{off: true}
}

// rejoinFor returns the record a faulty run may compare itself to, or nil.
func (t *Board) rejoinFor(ex *core.Experiment, persistent bool) *rejoin {
	set := t.fwSet
	if set == nil || persistent || ex.IsReference() || ex.DetailSink != nil ||
		set.Campaign != ex.Campaign.Name {
		return nil
	}
	j, _ := set.Rejoin.(*rejoin)
	return j
}

// fwRejoin ends the run on the reference's end state when, after this
// iteration's exchange, the board is in the state the reference was in at
// the same iteration, up to a shift of its counters; false when it is not
// (or the shifted end would reach the time-out) and the run goes on.
func (t *Board) fwRejoin(ex *core.Experiment, j *rejoin) (bool, error) {
	k := t.iteration - j.first
	if k < 0 || k >= len(j.points) || t.cpu.PinForceActive() {
		return false, nil
	}
	jp := &j.points[k]
	if len(t.outputs) != jp.outputs {
		return false, nil
	}
	d, ok := t.cpu.Rejoins(jp.cpu)
	if !ok {
		return false, nil
	}
	if jp.simState == nil {
		if t.sim != nil {
			return false, nil
		}
	} else if ss, ok := t.sim.(envsim.Snapshotter); !ok || !ss.EqualState(jp.simState) {
		return false, nil
	}
	// d is the board's offset from the shared snapshot; from the
	// reference at this iteration it is d less the reference's own.
	d = d.Sub(jp.shift)
	at := t.cpu.Cycle()
	if at+(j.end.Cycle-(jp.cpu.Cycle+jp.shift.Cycle)) >= ex.Campaign.Termination.TimeoutCycles {
		return false, nil
	}
	if err := t.cpu.Skip(j.end, d, jp.events); err != nil {
		return false, err
	}
	t.iteration = j.iteration
	t.outputs = append(t.outputs, j.outputs[jp.outputs:]...)
	ex.Converged, ex.ConvergedAt = true, at
	mFwConverged.Inc()
	var det *thor.Detection
	if j.status == campaign.OutcomeDetected {
		det = t.cpu.Detection()
	}
	t.finishOutcome(ex, j.status, det)
	return true, nil
}
