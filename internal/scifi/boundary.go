package scifi

import (
	"slices"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/thor"
)

// The boundary oracle. At an iteration boundary of a closed loop it asks
// one question: is the board, up to a thor.Shift of its free-running
// counters, in a state whose future is already known? No instruction reads
// those counters, the watchdog reads only cycle − lastKick, and a
// simulator's Exchange is a function of its state and the outputs it is
// handed, so from such a state the run repeats a known one, each counter
// keeping its offset, and what the listing reads at its end is what
// emulating every cycle would have left. Two sources of known states:
//
//   - The reference's join point for this iteration (the convergence
//     cut-off): a transient fault flushed out of the loop leaves the run
//     the reference's, a few cycles late or early. The board restores the
//     reference's end state moved by the offset, splices its outputs and
//     events with the reference's suffix of them and ends with the
//     reference's outcome — unless the reference timed out, or its end
//     moved by the offset would reach the time-out.
//   - The run's own previous boundary (the steady-state skip): a loop at
//     its set point repeats its last iteration, each counter d further on.
//     The board moves the run m iterations on — m·d onto the counters, the
//     outputs appended m times, the simulator as it is — to the boundary
//     before the MaxIterations one and at least two iterations short of the
//     time-out, and emulates the rest, so termination is decided as before.
//     One skip a run, none across a detection event, logged or pending.
//
// It is armed where the board forwards for the campaign (a recording
// reference, or a faulty run holding the campaign's set: with forwarding
// off a run is the cold oracle), for a run whose fault is not reasserted,
// not in detail mode; a pin force refuses both checks. The reference records a join point at every
// boundary from the plan's first point on (no faulty run is injected
// earlier), sharing one snapshot while its state repeats, and its end. It
// skips only past the campaign's last injection point (ForwardPlan.Horizon)
// and every planned capture; its def-use table stops there (a later
// iteration's accesses are the last emulated one's), and the skipped
// stretch stays in the join record in closed form.
//
// What it costs: a diverged run's compare with its join point fails on its
// simulator, its registers or its data cache, reading the join point where
// it lies. The steady test compares PC, registers, flags, events and the
// iteration's outputs and inputs with the previous boundary's; only where
// that passes is the simulator snapshotted (into the board's one reused
// state), the board at the next boundary the
// simulator repeats (a plant's state creeps on long after the registers
// settle; the snapshot shares with the board's previous one what did not
// change), and that compared at the one after. A failed attempt backs off
// 1, 2, 4 … steadyMaxGap boundaries, bounding the snapshots.

// steadyMaxGap is the longest back-off between two steady attempts, in
// boundaries: a run of n iterations takes a few plus n/steadyMaxGap
// snapshots.
const steadyMaxGap = 32

// joinPoint is the reference run's board state after one iteration's
// exchange: a snapshot, possibly shared with neighbouring join points, and
// the reference's shift from it.
type joinPoint struct {
	cpu             *thor.Snapshot
	shift           thor.Shift
	events, outputs int // detection events logged and outputs drained
	simState        any // nil for a run without a simulator
}

// stretch is the reference's skipped steady state in closed form: the
// join point points[at] repeated m iterations on, each iteration adding
// shift d and k outputs.
type stretch struct {
	at, m, k int
	d        thor.Shift
}

// rejoin is the reference run's join record, held in the forward set
// (core.ForwardSet.Rejoin).
type rejoin struct {
	first  int // the iteration of points[0]
	points []joinPoint
	steady stretch // m 0: the reference skipped no iteration here
	// The reference run's end: board state after its last outputs were
	// drained, iteration count, every output and how it ended.
	end       *thor.Snapshot
	iteration int
	outputs   []uint32
	status    campaign.OutcomeStatus
	bytes     int  // the record's share of the set's Bytes
	off       bool // recording stopped: the byte budget
}

// joinPointBytes is what a join point costs beyond any snapshot it
// captures: the struct and a simulator state.
const joinPointBytes = 160

// at returns the recorded join point iteration first+k has, and n, how
// many iterations of the steady stretch lie between the two: inside the
// stretch the join point is the stretch's first repeated n times, its
// shift n·d and its outputs n·k further on. nil: the record has none.
func (j *rejoin) at(k int) (p *joinPoint, n int) {
	s := j.steady
	switch {
	case k < 0 || k >= len(j.points)+s.m:
		return nil, 0
	case k <= s.at:
		return &j.points[k], 0
	case k > s.at+s.m:
		return &j.points[k-s.m], 0
	}
	return &j.points[s.at], k - s.at
}

// boundaryWatch is one run's oracle state between its boundaries. The ins
// buffer, last and lastSim outlive the run.
type boundaryWatch struct {
	on   bool    // armed for this run
	join *rejoin // the record a faulty run compares itself to; nil: none
	// steady: no skip taken yet; seen: the fields below hold the
	// previous boundary.
	steady, seen bool
	pc           uint32
	regs         [thor.NumRegs]uint32
	flags        thor.Flags
	events       int
	// outEnd is len(Board.outputs) at the previous boundary; the last
	// outLen of them are that iteration's.
	outEnd, outLen int
	ins            []uint32 // the inputs pushed there

	// trying: a steady attempt is on, from the simulator's state sim;
	// snap is the board's at the first boundary sim repeated. wait
	// boundaries pass before the next attempt, gap after a failed one.
	trying    bool
	sim       any
	snap      *thor.Snapshot
	wait, gap int
	// last and lastSim are the newest snap and sim, which outlive the
	// run: the next snap shares with last what did not change, and the
	// simulator writes the next sim into lastSim.
	last    *thor.Snapshot
	lastSim any
}

// forwards reports whether this board forwards for the experiment's
// campaign: a recording reference run, or a faulty run holding the
// campaign's forward set, not in detail mode.
func (t *Board) forwards(ex *core.Experiment) bool {
	if ex.IsReference() {
		return t.fwRec != nil && ex.DetailSink == nil
	}
	set := t.fwSet
	return !(set == nil || ex.DetailSink != nil || set.Campaign != ex.Campaign.Name)
}

// armBoundary arms the oracle for a run about to enter its termination
// loop.
func (t *Board) armBoundary(ex *core.Experiment, persistent bool) {
	on := !persistent && t.forwards(ex)
	t.watch = boundaryWatch{on: on, steady: on, ins: t.watch.ins[:0], gap: 1, outEnd: len(t.outputs),
		last: t.watch.last, lastSim: t.watch.lastSim}
	if on && !ex.IsReference() {
		t.watch.join, _ = t.fwSet.Rejoin.(*rejoin)
	}
}

// boundary is the oracle after the exchange that pushed ins and after the
// reassert: the reference records its join point, a faulty run re-joins
// the reference (true: the run ended), and a steady run skips.
func (t *Board) boundary(ex *core.Experiment, ins []uint32) (bool, error) {
	w := &t.watch
	if ex.IsReference() {
		t.recordJoin()
	} else if w.join != nil {
		if done, err := t.tryRejoin(ex, w.join); done || err != nil {
			return done, err
		}
	}
	if w.steady {
		t.steadyCheck(ex, ins)
	}
	return false, nil
}

// matches reports whether the board is in snapshot s's state up to a
// shift of its counters, with outputs drained and its simulator in state
// sim (nil: no simulator), and returns the shift. A pin force refuses. PC
// and registers are compared first, and the simulator before the rest of
// the board: a faulty run whose registers are back in the reference's
// state often still has a plant that is not.
func (t *Board) matches(s *thor.Snapshot, outputs int, sim any) (thor.Shift, bool) {
	c := t.cpu
	if c.PinForceActive() || len(t.outputs) != outputs || c.PC != s.PC || c.Regs != s.Regs {
		return thor.Shift{}, false
	}
	if !(sim == nil && t.sim == nil || sim != nil && t.sim != nil && t.sim.EqualState(sim)) {
		return thor.Shift{}, false
	}
	return c.Rejoins(s)
}

// recordJoin records the reference run's join point for the iteration
// that just ended — from the plan's first point on.
func (t *Board) recordJoin() {
	j, plan := t.fwRec.join, t.fwRec.plan
	if j.off || len(plan.Cycles) > 0 && t.cpu.Cycle() < plan.Cycles[0] {
		return
	}
	jp := joinPoint{events: t.cpu.NumEvents(), outputs: len(t.outputs)}
	if t.sim != nil {
		jp.simState = t.sim.SnapshotState()
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
	if t.fwJoinFits(cost, true) {
		j.points = append(j.points, jp)
	}
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

// tryRejoin ends the run on the reference's end state when the board is in
// the state the reference was in at the same iteration, up to a shift of
// its counters; false when it is not (or the shifted end would reach the
// time-out) and the run goes on.
func (t *Board) tryRejoin(ex *core.Experiment, j *rejoin) (bool, error) {
	jp, n := j.at(t.iteration - j.first)
	if jp == nil {
		return false, nil
	}
	outputs := jp.outputs + n*j.steady.k
	d, ok := t.matches(jp.cpu, outputs, jp.simState)
	if !ok {
		return false, nil
	}
	// d is the board's offset from the shared snapshot; from the
	// reference at this iteration it is d less the reference's own.
	shift := jp.shift.Add(j.steady.d.Times(uint64(n)))
	d = d.Sub(shift)
	at := t.cpu.Cycle()
	if at+(j.end.Cycle-(jp.cpu.Cycle+shift.Cycle)) >= ex.Campaign.Termination.TimeoutCycles {
		return false, nil
	}
	if err := t.cpu.Skip(j.end, d, jp.events); err != nil {
		return false, err
	}
	t.iteration = j.iteration
	t.outputs = append(t.outputs, j.outputs[outputs:]...)
	ex.Converged, ex.ConvergedAt = true, at
	mFwConverged.Inc()
	var det *thor.Detection
	if j.status == campaign.OutcomeDetected {
		det = t.cpu.Detection()
	}
	t.finishOutcome(ex, j.status, det)
	return true, nil
}

// steadyCheck skips the run to its last iteration when its state repeats
// the previous boundary's.
func (t *Board) steadyCheck(ex *core.Experiment, ins []uint32) {
	w, c := &t.watch, t.cpu
	outs := t.outputs[w.outEnd:]
	same := w.seen && c.PC == w.pc && c.Regs == w.regs && c.Flags == w.flags &&
		c.NumEvents() == w.events && len(outs) == w.outLen &&
		slices.Equal(outs, t.outputs[w.outEnd-w.outLen:w.outEnd]) && slices.Equal(ins, w.ins)
	w.seen, w.pc, w.regs, w.flags, w.events = true, c.PC, c.Regs, c.Flags, c.NumEvents()
	w.outEnd, w.outLen = len(t.outputs), len(outs)
	w.ins = append(w.ins[:0], ins...)
	if w.wait > 0 {
		w.wait--
	}
	if !w.trying {
		if same && w.wait == 0 && !c.PinForceActive() && t.steadyPastHorizon(ex) {
			w.trying = true
			if t.sim != nil {
				if w.lastSim == nil || !t.sim.SnapshotStateInto(w.lastSim) {
					w.lastSim = t.sim.SnapshotState()
				}
				w.sim = w.lastSim
			}
		}
		return
	}
	// An attempt is on: the simulator has to repeat first, then the board.
	if same {
		if w.snap == nil {
			if !c.PinForceActive() && (t.sim == nil || t.sim.EqualState(w.sim)) {
				w.snap, _ = c.SnapshotSharing(w.last)
				w.last = w.snap
				return
			}
		} else if d, ok := t.matches(w.snap, len(t.outputs), w.sim); ok {
			t.steadySkip(ex, d, len(outs))
			return
		}
	}
	// The attempt failed: back off.
	w.trying, w.snap, w.sim = false, nil, nil
	w.wait, w.gap = w.gap, min(2*w.gap, steadyMaxGap)
}

// steadyPastHorizon reports whether the run may skip from here: any
// faulty run, and a reference run whose recording is done with — every
// planned capture taken (or the budget spent) and the campaign's last
// injection point passed.
func (t *Board) steadyPastHorizon(ex *core.Experiment) bool {
	if !ex.IsReference() {
		return true
	}
	plan, at := t.fwRec.plan, t.cpu.Cycle()
	if plan.HorizonByInstret {
		at = t.cpu.Instret()
	}
	return !t.fwRecording(ex) && at > plan.Horizon
}

// steadySkip moves a run whose iterations repeat with shift d, each
// draining k outputs, to the boundary before its last iteration (see the
// bounds above): once a run. A reference's def-use table stops here, and
// its join record takes the skipped stretch.
func (t *Board) steadySkip(ex *core.Experiment, d thor.Shift, k int) {
	t.watch.steady = false
	term, at := ex.Campaign.Termination, t.cpu.Cycle()
	var m uint64
	// The iteration's last instruction may have taken the run past the
	// time-out: then the loop top times it out, and nothing is skipped.
	if left := (max(term.TimeoutCycles, at) - at) / max(d.Cycle, 1); left > 2 {
		m = left - 2
	}
	if term.MaxIterations > 0 {
		m = min(m, uint64(term.MaxIterations-1-t.iteration))
	}
	if m == 0 {
		return
	}
	skip := d.Times(m)
	t.cpu.Advance(skip)
	// The skipped iterations' outputs: the last iteration's k, m times
	// over, copied in doubling runs.
	n := len(t.outputs)
	t.outputs = slices.Grow(t.outputs, int(m)*k)[:n+int(m)*k]
	for from := n - k; n < len(t.outputs); {
		n += copy(t.outputs[n:], t.outputs[from:n])
	}
	t.iteration += int(m)
	ex.SteadyAt, ex.SteadyCycles = at, skip.Cycle
	mSteady.Inc()
	if ex.IsReference() {
		t.fwRec.du = t.cpu.TakeDefUse()
		// Recording, once on, takes every boundary until it stops for
		// good: the last join point is this boundary's.
		if j := t.fwRec.join; !j.off && len(j.points) > 0 {
			j.steady = stretch{at: len(j.points) - 1, m: int(m), k: k, d: d}
		}
	}
}
