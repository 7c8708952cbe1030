package envsim

import "fmt"

// Snapshotter is an optional Simulator extension for campaign
// checkpoint-forwarding: a simulator that can capture and restore its
// internal state lets the runner resume a checkpointed run mid-stream.
// Simulators that do not implement it are handled by deterministic
// replay: the recorded Exchange calls of the fault-free prefix are
// replayed against a fresh instance (which is exact for any simulator
// whose Exchange is a pure function of its state and inputs). All
// built-in simulators implement Snapshotter directly.
type Snapshotter interface {
	// SnapshotState returns an opaque deep copy of the simulator state.
	// The returned value must stay valid (immutable) even as the
	// simulator advances.
	SnapshotState() any
	// RestoreState overwrites the simulator state with a value returned
	// by SnapshotState on an instance of the same type. The same state
	// value may be restored onto many instances.
	RestoreState(state any) error
}

// SnapshotState implements Snapshotter.
func (s *Scripted) SnapshotState() any {
	return &Scripted{
		inputs:  s.inputs, // immutable after Reset
		pos:     s.pos,
		Outputs: append([]uint32(nil), s.Outputs...),
	}
}

// RestoreState implements Snapshotter.
func (s *Scripted) RestoreState(state any) error {
	o, ok := state.(*Scripted)
	if !ok {
		return fmt.Errorf("envsim: scripted restore from %T", state)
	}
	s.inputs = o.inputs
	s.pos = o.pos
	s.Outputs = append([]uint32(nil), o.Outputs...)
	return nil
}

// SnapshotState implements Snapshotter.
func (p *FirstOrderPlant) SnapshotState() any {
	c := *p
	return &c
}

// RestoreState implements Snapshotter.
func (p *FirstOrderPlant) RestoreState(state any) error {
	o, ok := state.(*FirstOrderPlant)
	if !ok {
		return fmt.Errorf("envsim: first-order-plant restore from %T", state)
	}
	*p = *o
	return nil
}

// SnapshotState implements Snapshotter.
func (e *Engine) SnapshotState() any {
	c := *e
	return &c
}

// RestoreState implements Snapshotter.
func (e *Engine) RestoreState(state any) error {
	o, ok := state.(*Engine)
	if !ok {
		return fmt.Errorf("envsim: engine restore from %T", state)
	}
	*e = *o
	return nil
}
