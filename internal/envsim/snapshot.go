package envsim

import (
	"fmt"
	"slices"
)

// SnapshotState implements Simulator.
func (s *Scripted) SnapshotState() any {
	return &Scripted{
		inputs:  s.inputs, // immutable after Reset
		pos:     s.pos,
		Outputs: append([]uint32(nil), s.Outputs...),
	}
}

// RestoreState implements Simulator.
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

// SnapshotStateInto implements Simulator.
func (s *Scripted) SnapshotStateInto(state any) bool {
	o, ok := state.(*Scripted)
	if ok {
		o.inputs, o.pos, o.Outputs = s.inputs, s.pos, append(o.Outputs[:0], s.Outputs...)
	}
	return ok
}

// EqualState implements Simulator. A snapshot's buf is zero: the one
// Exchange returns is no part of the state.
func (s *Scripted) EqualState(state any) bool {
	o, ok := state.(*Scripted)
	return ok && s.pos == o.pos && slices.Equal(s.inputs, o.inputs) && slices.Equal(s.Outputs, o.Outputs)
}

// SnapshotState implements Simulator.
func (p *FirstOrderPlant) SnapshotState() any {
	c := *p
	return &c
}

// RestoreState implements Simulator.
func (p *FirstOrderPlant) RestoreState(state any) error {
	o, ok := state.(*FirstOrderPlant)
	if !ok {
		return fmt.Errorf("envsim: first-order-plant restore from %T", state)
	}
	*p = *o
	return nil
}

// SnapshotStateInto implements Simulator.
func (p *FirstOrderPlant) SnapshotStateInto(state any) bool {
	o, ok := state.(*FirstOrderPlant)
	if ok {
		*o = *p
	}
	return ok
}

// EqualState implements Simulator.
func (p *FirstOrderPlant) EqualState(state any) bool {
	o, ok := state.(*FirstOrderPlant)
	return ok && *p == *o
}

// SnapshotState implements Simulator.
func (e *Engine) SnapshotState() any {
	c := *e
	return &c
}

// RestoreState implements Simulator.
func (e *Engine) RestoreState(state any) error {
	o, ok := state.(*Engine)
	if !ok {
		return fmt.Errorf("envsim: engine restore from %T", state)
	}
	*e = *o
	return nil
}

// SnapshotStateInto implements Simulator.
func (e *Engine) SnapshotStateInto(state any) bool {
	o, ok := state.(*Engine)
	if ok {
		*o = *e
	}
	return ok
}

// EqualState implements Simulator.
func (e *Engine) EqualState(state any) bool {
	o, ok := state.(*Engine)
	return ok && *e == *o
}
