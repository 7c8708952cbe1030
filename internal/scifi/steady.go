package scifi

import (
	"slices"

	"goofi/internal/core"
	"goofi/internal/envsim"
	"goofi/internal/thor"
)

// The steady-state skip. A closed loop driven to its set point settles: at
// an iteration boundary the board is where it was one iteration earlier —
// registers, memory, caches, ports, simulator — but for the free-running
// counters, which have moved by one iteration's shift d (thor.Shift). No
// instruction reads those counters, the watchdog reads only cycle −
// lastKick, and a simulator's Exchange is a function of its state and the
// outputs it is handed, so every later iteration repeats the last one:
// the same instructions, the same outputs drained, the same inputs pushed,
// the same state at its end, each counter d further on. The board
// therefore moves such a run straight to the boundary before its last
// iteration — m·d onto the counters (lastKick by m·d's cycles), the
// iteration's outputs appended m times, m onto the iteration count, the
// simulator left as it is — and emulates the rest, so the code that
// decides termination decides it as before. What the listing reads
// afterwards — outputs, iteration count, the scan chain, the result
// memory — is what emulating every iteration would have left.
//
// How far: to the boundary before the MaxIterations one, and at least two
// iterations short of the time-out, so every skipped iteration ends well
// before the loop top that would time the run out (which covers
// MaxIterations 0: such a run still ends on its time-out, emulated).
//
// What is excluded: a run whose fault is reasserted (it is not a function
// of its state alone), detail mode (every instruction is traced), an
// active pin force, an iteration that logged a detection event (the skip
// would have to log it m times), a pending detection, and a simulator
// that cannot snapshot (nothing to compare it with). The skip is armed
// only on a board that forwards — one holding a forward set, or recording
// one in the reference run — so a run with forwarding off is the cold
// oracle the differentials compare with.
//
// The reference run skips too, but only once the def-use table and the
// join points can do without the rest of the run: past the campaign's last
// injection point (core.ForwardPlan.Horizon) and past every planned
// capture, the horizon guard's included. From the skip on it records no
// join point and no def-use access: every access of a later iteration is
// one the last emulated iteration made, which the table holds after any
// injection point the pruner asks about, so it answers as the full table
// would; an injection point past the skip finds no boundary and runs.
//
// What it costs: the test at a boundary compares PC, registers, flags,
// the event count and this iteration's drained outputs and pushed inputs
// with the previous boundary's — nothing allocated, nothing snapshotted.
// Only where that passes does an attempt start: the simulator's state is
// snapshotted (a few words), the next boundary compares it (envsim's
// EqualState) and, where it repeats, snapshots the board, and the one
// after compares that (thor.CPU.Rejoins). A plant's float64 state creeps
// on for hundreds of iterations after the controller's registers stopped
// moving, which the simulator's compare refuses before a board snapshot
// (≈3 µs) is spent; and a failed attempt backs off — 1, 2, 4 …
// steadyMaxGap boundaries — which bounds the snapshots a run takes.

// steadyMaxGap is the longest back-off between two attempts, in iteration
// boundaries: at most that many iterations are emulated past the state
// settling, and a run of n iterations takes at most a few plus
// n/steadyMaxGap snapshots.
const steadyMaxGap = 32

// steadyWatch is one run's watch for its steady state: what the board
// held at the previous iteration boundary, and, while an attempt is on,
// snapshots of where it started. The ins buffer outlives the run.
type steadyWatch struct {
	on bool // armed for this run, and no skip taken yet
	// seen: the fields below describe the previous boundary.
	seen   bool
	pc     uint32
	regs   [thor.NumRegs]uint32
	flags  thor.Flags
	events int
	// outEnd is len(Board.outputs) at the previous boundary; the last
	// outLen of them are that iteration's.
	outEnd, outLen int
	ins            []uint32 // the inputs pushed there

	// trying: an attempt is on. sim is the simulator's state where it
	// started; snap is the board's, taken at the first boundary the
	// simulator was back in that state.
	trying bool
	sim    any
	snap   *thor.Snapshot
	// wait is how many boundaries pass before the next attempt; gap is
	// the back-off after the next failed one.
	wait, gap int
}

// steadyArm starts the watch for a run about to enter its termination
// loop.
func (t *Board) steadyArm(ex *core.Experiment, persistent bool) {
	w := &t.steady
	w.on = !persistent && ex.DetailSink == nil
	if ex.IsReference() {
		w.on = w.on && t.fwRec != nil
	} else {
		w.on = w.on && t.fwSet != nil && t.fwSet.Campaign == ex.Campaign.Name
	}
	if _, ok := t.sim.(envsim.Snapshotter); t.sim != nil && !ok {
		w.on = false // nothing to compare the simulator with
	}
	w.seen, w.trying, w.sim, w.snap, w.wait, w.gap = false, false, nil, nil, 0, 1
	w.outEnd = len(t.outputs)
}

// steadyCheck runs at an iteration boundary, after the exchange that
// pushed ins and after the re-join test, and skips the run to its last
// iteration when its state repeats the previous boundary's.
func (t *Board) steadyCheck(ex *core.Experiment, ins []uint32) {
	w, c := &t.steady, t.cpu
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
			if ss, ok := t.sim.(envsim.Snapshotter); ok {
				w.sim = ss.SnapshotState()
			}
		}
		return
	}
	// An attempt is on: the simulator has to repeat first, then the board.
	ss, _ := t.sim.(envsim.Snapshotter)
	if same && !c.PinForceActive() && (ss == nil || ss.EqualState(w.sim)) {
		if w.snap == nil {
			w.snap = c.Snapshot()
			return
		}
		if d, ok := c.Rejoins(w.snap); ok {
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
	if t.fwRecording(ex) {
		return false
	}
	plan, at := t.fwRec.plan, t.cpu.Cycle()
	if plan.HorizonByInstret {
		at = t.cpu.Instret()
	}
	return at > plan.Horizon
}

// steadySkip moves a run whose iterations repeat with shift d, each
// draining k outputs, to the boundary before its last iteration (see the
// bounds above), and stops the watch: one skip a run.
func (t *Board) steadySkip(ex *core.Experiment, d thor.Shift, k int) {
	t.steady.on = false
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
	period := t.outputs[len(t.outputs)-k:]
	for i := uint64(0); i < m; i++ {
		t.outputs = append(t.outputs, period...)
	}
	t.iteration += int(m)
	ex.SteadyAt, ex.SteadyCycles = at, skip.Cycle
	mSteady.Inc()
	if ex.IsReference() {
		// Nothing recorded from here on is needed (see above); the
		// table stops where the run left off emulating every iteration.
		t.fwRec.join.off = true
		t.fwRec.du = t.cpu.TakeDefUse()
	}
}
