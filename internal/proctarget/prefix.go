package proctarget

import (
	"errors"
	"fmt"
	"time"

	"goofi/internal/core"
)

// The injection time of a proc experiment is "N instructions after
// main.workload". Single-stepping there costs one ptrace stop per
// instruction, the same N instructions again for every experiment. The
// fault-free prefix of a deterministic victim is the same every time,
// so it is recorded once per binary — program counter and register file
// after every instruction — and an experiment reaches step N as "the
// k-th arrival at trace[N]'s program counter": a hardware breakpoint
// there counts the k recorded occurrences and stops the child at the
// last, and the registers there are checked against the recorded ones.
// Where the kernel gives no counting breakpoint, int3s hop from one
// occurrence to the next. Whether any of it works is observed, never
// configured: a victim whose two recordings disagree is single-stepped,
// an arrival that fails its check is redone by single-stepping, and the
// hops are taken where the kernel refused the breakpoint.

// maxTraceSteps caps the recorded prefix (time to record it twice, and
// memory: one regFile per step). Injection points beyond it are guided
// to the end of the trace and single-stepped from there.
const maxTraceSteps = 4096

// regFile is the register file in register-chain slot order (gprNames,
// then specialNames).
type regFile [18]uint64

const (
	slotRIP = 15
	slotRSP = 16
)

// prefixTrace is a victim's recorded fault-free prefix: regs[i] is the
// register file after i instructions from main.workload, regs[0] the
// state at the workload breakpoint itself.
type prefixTrace struct {
	regs []regFile
	// loose[i] has bit s set when slot s at step i differed between the
	// two recordings beyond what diffRegs allows — a stale pointer into
	// an address-space-randomised mapping, say — after the workload
	// changed it. Such a register cannot be held against any one
	// recording and is left out of the check. One still held (below) is
	// checked against the child's own start, so it is never loose.
	loose []uint32
	// held[s] is the first step at which slot s no longer holds what it
	// held at main.workload, in either recording (len(regs) if it never
	// changes). Before that step the register still carries a value the
	// workload has not written: whatever the runtime left there, which one
	// exec of the victim can leave differently from another.
	held [len(regFile{})]int
	// ended: the victim terminated after the last recorded step, so
	// there is nothing beyond it to record.
	ended bool
}

func (tr *prefixTrace) usable() bool    { return tr != nil && len(tr.regs) > 0 }
func (tr *prefixTrace) pc(i int) uint64 { return tr.regs[i][slotRIP] }

// diffRegs compares two children's register files at the same step and
// returns the slots that differ, as a bit set. The register file does
// not repeat bit for bit between children of one binary: the main
// goroutine's stack lands at one of several addresses, which moves rsp
// and every register holding a stack address by one common delta. So a
// register is the same when it holds the same value, or the same value
// displaced by how far rsp moved; rip only when it holds the same value.
func diffRegs(a, b *regFile) (differing uint32) {
	delta := b[slotRSP] - a[slotRSP]
	for slot, v := range b {
		if v != a[slot] && (v != a[slot]+delta || slot == slotRIP) {
			differing |= 1 << slot
		}
	}
	return differing
}

// agree reports whether a second recording took the same path, and
// notes in tr.loose the registers the two do not agree on.
func (tr *prefixTrace) agree(o *prefixTrace) bool {
	if len(tr.regs) != len(o.regs) || tr.ended != o.ended {
		return false
	}
	for s := range tr.held {
		tr.held[s] = min(tr.held[s], o.held[s])
	}
	tr.loose = make([]uint32, len(tr.regs))
	for i := range tr.regs {
		if tr.pc(i) != o.pc(i) {
			return false
		}
		var held uint32
		for s, h := range tr.held {
			if i < h {
				held |= 1 << s
			}
		}
		tr.loose[i] = diffRegs(&tr.regs[i], &o.regs[i]) &^ held
	}
	return true
}

// noteHeld fills in held from the recorded steps.
func (tr *prefixTrace) noteHeld() {
	for s := range tr.held {
		i := 1
		for i < len(tr.regs) && tr.regs[i][s] == tr.regs[0][s] {
			i++
		}
		tr.held[s] = i
	}
}

// matches is the arrival check at step i of a child whose registers at
// main.workload were start. A register the recordings have not changed by
// step i must still hold the child's own start value; every other one the
// recordings agreed on must hold its recorded value. A child stepped from
// the same start stands there too: the Go ABI preserves no register across
// a call, so a value nothing in the workload has written is never read.
func (tr *prefixTrace) matches(i int, start, now *regFile) bool {
	differing := diffRegs(&tr.regs[i], now) &^ tr.loose[i]
	for s, v := range now {
		if i < tr.held[s] {
			differing &^= 1 << s
			if v != start[s] {
				differing |= 1 << s
			}
		}
	}
	return differing == 0
}

// prefix returns the victim's prefix trace covering want steps (capped
// at maxTraceSteps), recording it if no long-enough one is memoised:
// two fresh children are single-stepped from main.workload and the
// recording is kept only if both took the same path. It returns nil for
// a victim whose recordings disagreed; such a victim is single-stepped
// for as long as the process lives. timeout bounds each recording child.
func (vi *victimInfo) prefix(want uint64, timeout time.Duration) (*prefixTrace, error) {
	if want > maxTraceSteps {
		want = maxTraceSteps
	}
	vi.traceMu.Lock()
	defer vi.traceMu.Unlock()
	if vi.stepOnly {
		return nil, nil
	}
	if tr := vi.trace; tr != nil && (tr.ended || uint64(len(tr.regs)) > want) {
		return tr, nil
	}
	first, err := vi.record(want, timeout)
	if err != nil {
		return nil, err
	}
	second, err := vi.record(want, timeout)
	if err != nil {
		return nil, err
	}
	if !first.agree(second) {
		vi.trace, vi.stepOnly = nil, true
		return nil, nil
	}
	vi.trace = first
	return first, nil
}

// record single-steps one fresh child from main.workload for up to want
// instructions, taking the register file after each. The child is
// always killed and reaped before record returns.
func (vi *victimInfo) record(want uint64, timeout time.Duration) (*prefixTrace, error) {
	if timeout < time.Second {
		timeout = time.Second
	}
	lockThread()
	defer unlockThread()
	tr, err := startTraced(vi.path)
	if err != nil {
		return nil, err
	}
	defer tr.Shutdown()
	deadline := startWatchdog(timeout)
	deadline.watch(tr.PID())
	defer deadline.stop() // runs before Shutdown reaps

	fail := func(err error) (*prefixTrace, error) {
		if deadline.fired() {
			err = fmt.Errorf("proctarget: recording the prefix of %q exceeded %v", vi.path, timeout)
		}
		return nil, &procError{class: core.Transient, err: err}
	}
	hit, _, err := tr.toWorkload(vi)
	if err != nil {
		return fail(err)
	}
	pt := &prefixTrace{ended: !hit}
	for !pt.ended {
		rf, err := tr.Regs()
		if err != nil {
			return fail(err)
		}
		pt.regs = append(pt.regs, rf)
		if uint64(len(pt.regs)) > want {
			break
		}
		_, ei, err := tr.Step(1)
		if err != nil {
			return fail(err)
		}
		pt.ended = ei != nil
	}
	if deadline.fired() {
		return fail(nil)
	}
	pt.noteHeld()
	return pt, nil
}

// plantable reports whether an int3 may be planted at pc: only inside
// main.workload, which only the traced thread executes. The victim's
// other runtime threads are not traced and would die of the SIGTRAP.
func (vi *victimInfo) plantable(pc uint64) bool {
	return pc >= vi.workload && pc < vi.workloadEnd
}

// errEventRefused: the kernel will not give a child a counting
// breakpoint (tracer.ContToCount).
var errEventRefused = errors.New("proctarget: the kernel refused a counting breakpoint")

// guide advances the child, stopped at the workload breakpoint, along
// the prefix trace towards step budget: to the last recorded step at or
// before it whose program counter is plantable (the rest — a tail
// beyond the trace, a callee outside main.workload — is for the caller
// to single-step). done is that step's index. arrived is false when the
// child terminated on the way or its registers at done are not the
// recorded ones. The child is counted there (count), or, once the kernel
// has refused the Target a counting breakpoint, hops there by int3s (hop).
func (t *Target) guide(budget uint64) (done uint64, arrived bool, err error) {
	tr := t.trace
	goal := len(tr.regs) - 1
	if budget < uint64(goal) {
		goal = int(budget)
	}
	for !t.vi.plantable(tr.pc(goal)) {
		goal-- // ends at step 0 at the latest: the breakpoint itself
	}
	var cur int
	how := mGuidesCounted
	if !t.int3 {
		if cur, err = t.count(goal); errors.Is(err, errEventRefused) {
			t.int3 = true // the refusal is the host's: never ask again
		}
	}
	if t.int3 {
		how = mGuidesInt3
		cur, err = t.hop(goal)
	}
	if err != nil || cur != goal {
		return uint64(cur), false, err
	}
	how.Inc() // only a guide that got there counts as one
	now, err := t.tr.Regs()
	if err != nil {
		return uint64(goal), false, err
	}
	return uint64(goal), tr.matches(goal, &t.start, &now), nil
}

// arrivals says which execution of step goal's program counter a
// hardware breakpoint there counts step goal as: the k-th, at step first.
// Step 0 is one of them if it is at that address: the child stands on it,
// and the breakpoint fires before the instruction runs. A step that
// repeats its predecessor's address is an iteration of a rep-prefixed
// instruction, which fires the breakpoint once, at the first: so k counts
// runs of the address, and first is where goal's run starts.
func (tr *prefixTrace) arrivals(goal int) (k uint64, first int) {
	target := tr.pc(goal)
	for i := 0; i <= goal; i++ {
		if tr.pc(i) == target && (i == 0 || tr.pc(i-1) != target) {
			k, first = k+1, i
		}
	}
	return k, first
}

// count takes the child to step goal with one ptrace stop, at the k-th
// execution of goal's program counter (arrivals), and single-steps it
// from there to goal. cur is how far the child is known to have got.
func (t *Target) count(goal int) (cur int, err error) {
	target := t.trace.pc(goal)
	k, cur := t.trace.arrivals(goal)
	if cur > 0 {
		hit, _, err := t.tr.ContToCount(target, k)
		if errors.Is(err, errEventRefused) {
			return 0, err
		}
		mStops.Inc()
		if err != nil || !hit {
			return 0, err
		}
	}
	steps, ei, err := t.tr.Step(uint64(goal - cur))
	if err != nil || ei != nil {
		return cur + int(steps), err
	}
	return goal, nil
}

// hop takes the child to step goal by int3s: it plants one on the next
// address the recording reaches goal's by and continues to it, one ptrace
// stop a hop, and where the child stands on goal's address already, it
// first hops to the recorded successor. cur is how far the child got.
func (t *Target) hop(goal int) (cur int, err error) {
	tr := t.trace
	target := tr.pc(goal)
	var stops uint64
	defer func() { mStops.Add(stops) }()
	for cur < goal {
		bp, next := target, cur+1
		if tr.pc(cur) != target {
			for tr.pc(next) != target {
				next++
			}
		} else if bp = tr.pc(next); bp == target || !t.vi.plantable(bp) {
			// Sitting on the target address, the child must execute one
			// instruction before the int3 can go back in. That is a hop
			// to the recorded successor's own int3 — except where the
			// successor is the same address (rep) or not plantable.
			if _, ei, err := t.tr.Step(1); err != nil || ei != nil {
				return cur, err
			}
			cur = next
			continue
		}
		if err := t.tr.SetBreakpoint(bp); err != nil {
			return cur, err
		}
		stops++
		if hit, _, err := t.tr.ContToBreakpoint(); err != nil || !hit {
			return cur, err
		}
		cur = next
	}
	return goal, nil
}
