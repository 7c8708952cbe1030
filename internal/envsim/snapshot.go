package envsim

import (
	"fmt"
	"slices"
)

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
	// EqualState reports whether the simulator's state equals state, a
	// value SnapshotState returned on an instance of the same type:
	// what reflect.DeepEqual(SnapshotState(), state) says, without
	// copying or allocating. Checkpoint forwarding asks at iteration
	// boundaries whether a run's simulator is where another run's, or
	// its own an iteration earlier, was.
	EqualState(state any) bool
}

// StateReuser is an optional Snapshotter extension for a caller that
// snapshots a simulator often but holds only its newest state: the
// checkpoint-forwarding steady-state test, which snapshots at every
// attempt and drops the state when the attempt fails. SnapshotStateInto
// writes the simulator's state into state, a value SnapshotState returned
// on an instance of the same type that nothing else holds, and reports
// true; it returns false, leaving state untouched, when state is not of
// its type. The built-in simulators implement it.
type StateReuser interface {
	SnapshotStateInto(state any) bool
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

// SnapshotStateInto implements StateReuser.
func (s *Scripted) SnapshotStateInto(state any) bool {
	o, ok := state.(*Scripted)
	if ok {
		o.inputs, o.pos, o.Outputs = s.inputs, s.pos, append(o.Outputs[:0], s.Outputs...)
	}
	return ok
}

// EqualState implements Snapshotter. A snapshot's buf is zero: the one
// Exchange returns is no part of the state.
func (s *Scripted) EqualState(state any) bool {
	o, ok := state.(*Scripted)
	return ok && s.pos == o.pos && slices.Equal(s.inputs, o.inputs) && slices.Equal(s.Outputs, o.Outputs)
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

// SnapshotStateInto implements StateReuser.
func (p *FirstOrderPlant) SnapshotStateInto(state any) bool {
	o, ok := state.(*FirstOrderPlant)
	if ok {
		*o = *p
	}
	return ok
}

// EqualState implements Snapshotter.
func (p *FirstOrderPlant) EqualState(state any) bool {
	o, ok := state.(*FirstOrderPlant)
	return ok && *p == *o
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

// SnapshotStateInto implements StateReuser.
func (e *Engine) SnapshotStateInto(state any) bool {
	o, ok := state.(*Engine)
	if ok {
		*o = *e
	}
	return ok
}

// EqualState implements Snapshotter.
func (e *Engine) EqualState(state any) bool {
	o, ok := state.(*Engine)
	return ok && *e == *o
}
