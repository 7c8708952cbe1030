// Package trigger implements fault triggers: the conditions that decide
// *when* a fault is injected into a running workload. The paper's current
// tool uses breakpoints set via the scan chains (§3.3) and lists additional
// triggers as future work (§4): access of data values, execution of branch
// instructions or subprogram calls, task switches, and real-time clock
// times. All of them are implemented here for the THOR-S target.
package trigger

import (
	"fmt"

	"goofi/internal/thor"
)

// Spec is the serializable trigger selection stored in the campaign data.
type Spec struct {
	// Kind selects the trigger type: "cycle", "instret", "breakpoint",
	// "data-access", "branch", "call", "task-switch" or "rtc".
	Kind string `json:"kind"`
	// Cycle is the target cycle for "cycle" triggers.
	Cycle uint64 `json:"cycle,omitempty"`
	// Count is the instruction count for "instret" triggers.
	Count uint64 `json:"count,omitempty"`
	// Addr is the code address ("breakpoint") or data address
	// ("data-access", "task-switch").
	Addr uint32 `json:"addr,omitempty"`
	// Occurrence selects the n-th occurrence (1-based; 0 means first)
	// for breakpoint, data-access, branch, call and task-switch triggers.
	Occurrence int `json:"occurrence,omitempty"`
	// Write restricts "data-access" to stores (otherwise any access).
	Write bool `json:"write,omitempty"`
	// Period is the real-time-clock period in cycles for "rtc"; the
	// trigger fires at the Occurrence-th tick.
	Period uint64 `json:"period,omitempty"`
}

// CycleMonotonic reports whether the trigger's firing decision is a pure
// monotonic function of the cycle or instruction counter: once the
// counter passes the threshold the trigger is fired, and it keeps no
// occurrence state of its own. Only such triggers are safe to fast-forward
// with checkpoint restore — an occurrence-counting trigger (breakpoint,
// data-access, branch, call, task-switch) depends on the whole execution
// prefix, which a restored run would skip.
func (s Spec) CycleMonotonic() bool {
	switch s.Kind {
	case "cycle", "instret", "rtc":
		return true
	}
	return false
}

// ForwardPoint returns the counter threshold at which a cycle-monotonic
// trigger fires, and which counter it watches (byInstret selects the
// instruction counter). ok is false for triggers that are not
// cycle-monotonic; those cannot be forwarded.
func (s Spec) ForwardPoint() (at uint64, byInstret, ok bool) {
	switch s.Kind {
	case "cycle":
		return s.Cycle, false, true
	case "rtc":
		occ := s.Occurrence
		if occ <= 0 {
			occ = 1
		}
		return s.Period * uint64(occ), false, true
	case "instret":
		return s.Count, true, true
	}
	return 0, false, false
}

// Trigger decides when the injection point has been reached. Fired is
// evaluated before each instruction executes; triggers may keep occurrence
// state and must be Reset between experiments.
type Trigger interface {
	Name() string
	Reset()
	Fired(c *thor.CPU) bool
}

// Build constructs the trigger described by the spec.
func (s Spec) Build() (Trigger, error) { return s.Rebuild(nil) }

// Rebuild constructs the trigger described by the spec in old's place when
// old is a trigger Build or Rebuild made of the same type, and anew
// otherwise: a board re-arms one trigger for every experiment it runs.
func (s Spec) Rebuild(old Trigger) (Trigger, error) {
	occ := s.Occurrence
	if occ <= 0 {
		occ = 1
	}
	switch s.Kind {
	case "cycle":
		return into(old, cycleTrigger{at: s.Cycle}), nil
	case "instret":
		return into(old, instretTrigger{at: s.Count}), nil
	case "breakpoint":
		return into(old, breakpointTrigger{addr: s.Addr, occ: occ}), nil
	case "data-access":
		return into(old, dataAccessTrigger{addr: s.Addr, writeOnly: s.Write, occ: occ}), nil
	case "task-switch":
		// A task switch is observable as a write to the scheduler's
		// current-task variable.
		return into(old, dataAccessTrigger{addr: s.Addr, writeOnly: true, occ: occ, name: "task-switch"}), nil
	case "branch":
		return into(old, opClassTrigger{class: "branch", match: thor.Opcode.IsBranch, occ: occ}), nil
	case "call":
		return into(old, opClassTrigger{class: "call", match: thor.Opcode.IsCall, occ: occ}), nil
	case "rtc":
		if s.Period == 0 {
			return nil, fmt.Errorf("trigger: rtc trigger needs a period")
		}
		return into(old, cycleTrigger{at: s.Period * uint64(occ), name: "rtc"}), nil
	default:
		return nil, fmt.Errorf("trigger: unknown kind %q", s.Kind)
	}
}

// into stores v in old when old is a *T, and in a new T otherwise.
func into[T any, P interface {
	*T
	Trigger
}](old Trigger, v T) Trigger {
	p, ok := old.(P)
	if !ok {
		p = new(T)
	}
	*p = v
	return p
}

// RunUntil executes the CPU until the trigger fires (returning true with
// the CPU stopped *before* the triggering instruction), the CPU stops for
// another reason, or the cycle budget is exhausted.
func RunUntil(c *thor.CPU, tr Trigger, budget uint64) (fired bool, st thor.Status) {
	start := c.Cycle()
	for {
		if st := c.Status(); st != thor.StatusRunning {
			return false, st
		}
		if tr.Fired(c) {
			return true, c.Status()
		}
		if c.Cycle()-start >= budget {
			return false, c.Status()
		}
		c.Step()
	}
}

// RunUntilFast is RunUntil with batched fast-path execution. It applies
// only to cycle-monotonic triggers (spec.ForwardPoint ok): for those,
// Fired is a pure, side-effect-free threshold compare on the cycle or
// instruction counter, so between the current counter value and the
// threshold the per-instruction Fired/budget checks provably evaluate
// to false and can be skipped — the CPU bursts through that span with
// thor.StepBurst. Near the threshold (and for every non-monotonic
// trigger) execution is cycle-accurate RunUntil, so firing positions,
// statuses, and all architectural state are byte-identical.
//
// The equivalence argument, precisely: before every instruction inside
// a burst of chunk = min(at-counter, budget-used) cycles, (a) the CPU
// is running (StepBurst's loop condition), (b) the counter is strictly
// below at — for cycle triggers because cycle < burstStart+chunk ≤ at;
// for instret triggers because each instruction retires 1 instret and
// costs ≥1 cycle, so instret < instret0+chunk = at while the cycle
// budget lasts — hence Fired would return false, and (c) cycles used
// stay strictly below budget because chunk was capped by the remainder.
// All three skipped checks are therefore no-ops at every skipped point.
func RunUntilFast(c *thor.CPU, tr Trigger, spec Spec, budget uint64) (fired bool, st thor.Status) {
	at, byInstret, ok := spec.ForwardPoint()
	if !ok {
		return RunUntil(c, tr, budget)
	}
	start := c.Cycle()
	for {
		if st := c.Status(); st != thor.StatusRunning {
			return false, st
		}
		if tr.Fired(c) {
			return true, c.Status()
		}
		used := c.Cycle() - start
		if used >= budget {
			return false, c.Status()
		}
		counter := c.Cycle()
		if byInstret {
			counter = c.Instret()
		}
		if counter >= at {
			// The spec says the trigger has passed its threshold but
			// Fired disagreed (mismatched tr/spec pair): stay safe and
			// cycle-accurate.
			c.Step()
			continue
		}
		chunk := at - counter
		if rem := budget - used; chunk > rem {
			chunk = rem
		}
		c.StepBurst(chunk)
	}
}

type cycleTrigger struct {
	at   uint64
	name string
}

func (t *cycleTrigger) Name() string {
	if t.name != "" {
		return fmt.Sprintf("%s@%d", t.name, t.at)
	}
	return fmt.Sprintf("cycle@%d", t.at)
}
func (t *cycleTrigger) Reset()                 {}
func (t *cycleTrigger) Fired(c *thor.CPU) bool { return c.Cycle() >= t.at }

type instretTrigger struct{ at uint64 }

func (t *instretTrigger) Name() string           { return fmt.Sprintf("instret@%d", t.at) }
func (t *instretTrigger) Reset()                 {}
func (t *instretTrigger) Fired(c *thor.CPU) bool { return c.Instret() >= t.at }

type breakpointTrigger struct {
	addr uint32
	occ  int
	hits int
}

func (t *breakpointTrigger) Name() string { return fmt.Sprintf("breakpoint@%#x#%d", t.addr, t.occ) }
func (t *breakpointTrigger) Reset()       { t.hits = 0 }

func (t *breakpointTrigger) Fired(c *thor.CPU) bool {
	if c.PC == t.addr {
		t.hits++
		return t.hits >= t.occ
	}
	return false
}

// nextInstr decodes the instruction the CPU is about to execute, reading
// memory host-side so that cache statistics are not disturbed.
func nextInstr(c *thor.CPU) (thor.Instr, bool) {
	w, err := c.ReadWord32(c.PC)
	if err != nil {
		return thor.Instr{}, false
	}
	return thor.Decode(w), true
}

type dataAccessTrigger struct {
	addr      uint32
	writeOnly bool
	occ       int
	hits      int
	name      string
}

func (t *dataAccessTrigger) Name() string {
	n := t.name
	if n == "" {
		n = "data-access"
	}
	mode := "rw"
	if t.writeOnly {
		mode = "w"
	}
	return fmt.Sprintf("%s@%#x(%s)#%d", n, t.addr, mode, t.occ)
}

func (t *dataAccessTrigger) Reset() { t.hits = 0 }

// Fired computes the effective address of the upcoming instruction and
// matches it against the watched address.
func (t *dataAccessTrigger) Fired(c *thor.CPU) bool {
	in, ok := nextInstr(c)
	if !ok {
		return false
	}
	var ea uint32
	var isWrite bool
	switch in.Op {
	case thor.OpLD:
		ea = c.Regs[in.Rs1] + uint32(in.SImm())
	case thor.OpST:
		ea = c.Regs[in.Rs1] + uint32(in.SImm())
		isWrite = true
	case thor.OpPUSH:
		ea = c.Regs[thor.RegSP] - 4
		isWrite = true
	case thor.OpPOP:
		ea = c.Regs[thor.RegSP]
	default:
		return false
	}
	if ea != t.addr || (t.writeOnly && !isWrite) {
		return false
	}
	t.hits++
	return t.hits >= t.occ
}

type opClassTrigger struct {
	class string
	match func(thor.Opcode) bool
	occ   int
	hits  int
}

func (t *opClassTrigger) Name() string { return fmt.Sprintf("%s#%d", t.class, t.occ) }
func (t *opClassTrigger) Reset()       { t.hits = 0 }

func (t *opClassTrigger) Fired(c *thor.CPU) bool {
	in, ok := nextInstr(c)
	if !ok || !t.match(in.Op) {
		return false
	}
	t.hits++
	return t.hits >= t.occ
}
