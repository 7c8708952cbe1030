// Package envsim provides environment simulators: host-side models of the
// target system's physical environment that exchange data with the
// workload at each loop iteration (paper §3.2 and Fig 1, "Workload /
// Environment Simulator"). A control workload reads sensor values from an
// input port and writes actuator commands to an output port; the simulator
// closes the loop.
package envsim

import (
	"fmt"
	"sort"
)

// Simulator is one environment model. Exchange is called once per
// workload iteration with the values the workload emitted; it returns the
// input values for the next iteration. The first call (before the first
// iteration) receives nil.
//
// The slice Exchange returns is valid until the next Exchange on the same
// instance and no longer: a simulator may hand out one buffer it owns and
// overwrite it every step, as the built-in ones do, so that a control
// loop's exchange allocates nothing. A caller that keeps the values copies
// them at once — queueing them on an input port (thor.PortSet.PushInput)
// is such a copy. outputs belongs to the caller; a simulator that keeps
// them copies them too.
//
// The state methods serve campaign checkpoint-forwarding, which resumes
// a checkpointed run mid-stream and asks at iteration boundaries whether
// a run's simulator is where another run's, or its own an iteration
// earlier, was.
type Simulator interface {
	Name() string
	// Reset prepares the simulator with campaign parameters, leaving it
	// as a fresh instance from its factory after Reset would be: a board
	// makes one simulator and resets it for every experiment it runs.
	Reset(params map[string]float64)
	// Exchange advances the environment by one step.
	Exchange(outputs []uint32) (inputs []uint32)
	// SnapshotState returns an opaque deep copy of the simulator state.
	// The returned value must stay valid (immutable) even as the
	// simulator advances.
	SnapshotState() any
	// RestoreState overwrites the simulator state with a value returned
	// by SnapshotState on an instance of the same type. The same state
	// value may be restored onto many instances.
	RestoreState(state any) error
	// EqualState reports whether the simulator's state equals state, a
	// value SnapshotState returned on an instance of the same type:
	// what reflect.DeepEqual(SnapshotState(), state) says, without
	// copying or allocating.
	EqualState(state any) bool
	// SnapshotStateInto writes the simulator's state into state, a value
	// SnapshotState returned on an instance of the same type that nothing
	// else holds, and reports true; it returns false, leaving state
	// untouched, when state is not of its type. It serves a caller that
	// snapshots often but holds only the newest state: the steady-state
	// test, which snapshots at every attempt and drops the state when the
	// attempt fails.
	SnapshotStateInto(state any) bool
}

// Factory creates a fresh simulator instance.
type Factory func() Simulator

// Registry maps simulator names to factories. A fresh registry carries
// the built-in simulators; register additional ones per deployment.
type Registry struct {
	factories map[string]Factory
}

// NewRegistry returns a registry with the built-in simulators:
// "scripted", "first-order-plant" and "engine".
func NewRegistry() *Registry {
	r := &Registry{factories: make(map[string]Factory)}
	r.Register("scripted", func() Simulator { return &Scripted{} })
	r.Register("first-order-plant", func() Simulator { return &FirstOrderPlant{} })
	r.Register("engine", func() Simulator { return &Engine{} })
	return r
}

// Register adds a factory; it replaces any previous registration.
func (r *Registry) Register(name string, f Factory) {
	r.factories[name] = f
}

// New instantiates and resets a simulator by name.
func (r *Registry) New(name string, params map[string]float64) (Simulator, error) {
	f, ok := r.factories[name]
	if !ok {
		return nil, fmt.Errorf("envsim: no simulator %q (have %v)", name, r.Names())
	}
	sim := f()
	sim.Reset(params)
	return sim, nil
}

// Names lists the registered simulators.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.factories))
	for n := range r.factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Scripted replays a fixed input sequence, one value per iteration, and
// records everything the workload emits. Parameters: "count" (number of
// scripted values, default 16), "start", "stepSize" (inputs are
// start + i*stepSize, default 1 and 1).
type Scripted struct {
	inputs  []uint32
	pos     int
	Outputs []uint32
	buf     [1]uint32 // what Exchange returns
}

// Name implements Simulator.
func (s *Scripted) Name() string { return "scripted" }

// Reset implements Simulator.
func (s *Scripted) Reset(params map[string]float64) {
	count := int(paramOr(params, "count", 16))
	start := paramOr(params, "start", 1)
	step := paramOr(params, "stepSize", 1)
	s.inputs = make([]uint32, count)
	for i := range s.inputs {
		s.inputs[i] = uint32(int32(start + float64(i)*step))
	}
	s.pos = 0
	s.Outputs = nil
}

// Exchange implements Simulator.
func (s *Scripted) Exchange(outputs []uint32) []uint32 {
	s.Outputs = append(s.Outputs, outputs...)
	s.buf[0] = 0
	if s.pos < len(s.inputs) {
		s.buf[0] = s.inputs[s.pos]
		s.pos++
	}
	return s.buf[:]
}

// FirstOrderPlant is a discrete first-order system
//
//	x[k+1] = x[k] + dt/tau * (gain*u[k] - x[k])
//
// whose state is sampled as a fixed-point sensor value (Q8.8). The
// workload's job is to drive x to the setpoint. Parameters: "tau"
// (default 8), "dt" (1), "gain" (1), "setpoint" (100), "x0" (0).
type FirstOrderPlant struct {
	x, tau, dt, gain float64
	setpoint         float64
	buf              [2]uint32 // what Exchange returns
}

// Name implements Simulator.
func (p *FirstOrderPlant) Name() string { return "first-order-plant" }

// Reset implements Simulator.
func (p *FirstOrderPlant) Reset(params map[string]float64) {
	p.tau = paramOr(params, "tau", 8)
	p.dt = paramOr(params, "dt", 1)
	p.gain = paramOr(params, "gain", 1)
	p.setpoint = paramOr(params, "setpoint", 100)
	p.x = paramOr(params, "x0", 0)
}

// Setpoint returns the commanded setpoint in sensor counts (Q8.8).
func (p *FirstOrderPlant) Setpoint() int32 { return int32(p.setpoint * 256) }

// State returns the current plant state.
func (p *FirstOrderPlant) State() float64 { return p.x }

// Exchange implements Simulator: outputs[0] is the actuator command in
// Q8.8; the returned inputs are [sensor, setpoint] in Q8.8.
func (p *FirstOrderPlant) Exchange(outputs []uint32) []uint32 {
	if len(outputs) > 0 {
		u := float64(int32(outputs[len(outputs)-1])) / 256
		p.x += p.dt / p.tau * (p.gain*u - p.x)
	}
	p.buf = [2]uint32{uint32(int32(p.x * 256)), uint32(p.Setpoint())}
	return p.buf[:]
}

// Engine approximates a jet-engine speed loop: a second-order plant with
// inertia and drag, the workload commanding fuel flow. It reproduces the
// structure of the control application evaluated with GOOFI in the
// companion study [12]. Parameters: "inertia" (default 16), "drag"
// (0.05), "setpoint" (120), "x0" (0).
type Engine struct {
	speed, accel  float64
	inertia, drag float64
	setpoint      float64
	buf           [2]uint32 // what Exchange returns
}

// Name implements Simulator.
func (e *Engine) Name() string { return "engine" }

// Reset implements Simulator.
func (e *Engine) Reset(params map[string]float64) {
	e.inertia = paramOr(params, "inertia", 16)
	e.drag = paramOr(params, "drag", 0.05)
	e.setpoint = paramOr(params, "setpoint", 120)
	e.speed = paramOr(params, "x0", 0)
	e.accel = 0
}

// Setpoint returns the commanded setpoint in sensor counts (Q8.8).
func (e *Engine) Setpoint() int32 { return int32(e.setpoint * 256) }

// State returns the current engine speed.
func (e *Engine) State() float64 { return e.speed }

// Exchange implements Simulator.
func (e *Engine) Exchange(outputs []uint32) []uint32 {
	if len(outputs) > 0 {
		fuel := float64(int32(outputs[len(outputs)-1])) / 256
		e.accel = (fuel - e.drag*e.speed*e.speed/100) / e.inertia * 4
		e.speed += e.accel
		if e.speed < 0 {
			e.speed = 0
		}
	}
	e.buf = [2]uint32{uint32(int32(e.speed * 256)), uint32(e.Setpoint())}
	return e.buf[:]
}

func paramOr(params map[string]float64, key string, def float64) float64 {
	if v, ok := params[key]; ok {
		return v
	}
	return def
}
