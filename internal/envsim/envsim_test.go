package envsim

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRegistryBuiltins(t *testing.T) {
	r := NewRegistry()
	names := r.Names()
	want := []string{"engine", "first-order-plant", "scripted"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	for _, n := range want {
		sim, err := r.New(n, nil)
		if err != nil {
			t.Errorf("New(%q): %v", n, err)
			continue
		}
		if sim.Name() != n {
			t.Errorf("Name() = %q, want %q", sim.Name(), n)
		}
	}
	if _, err := r.New("ghost", nil); err == nil {
		t.Error("unknown simulator accepted")
	}
}

func TestRegistryCustomRegistration(t *testing.T) {
	r := NewRegistry()
	r.Register("custom", func() Simulator { return &Scripted{} })
	if _, err := r.New("custom", nil); err != nil {
		t.Error(err)
	}
}

func TestScriptedReplaysSequence(t *testing.T) {
	s := &Scripted{}
	s.Reset(map[string]float64{"count": 3, "start": 10, "stepSize": 5})
	if got := s.Exchange(nil); got[0] != 10 {
		t.Errorf("input 0 = %d", got[0])
	}
	if got := s.Exchange([]uint32{77}); got[0] != 15 {
		t.Errorf("input 1 = %d", got[0])
	}
	if got := s.Exchange([]uint32{88}); got[0] != 20 {
		t.Errorf("input 2 = %d", got[0])
	}
	// Exhausted: returns 0.
	if got := s.Exchange(nil); got[0] != 0 {
		t.Errorf("exhausted input = %d", got[0])
	}
	if len(s.Outputs) != 2 || s.Outputs[0] != 77 || s.Outputs[1] != 88 {
		t.Errorf("recorded outputs = %v", s.Outputs)
	}
}

func TestFirstOrderPlantConvergesUnderIdealControl(t *testing.T) {
	p := &FirstOrderPlant{}
	p.Reset(map[string]float64{"setpoint": 50})
	inputs := p.Exchange(nil)
	if len(inputs) != 2 {
		t.Fatalf("inputs = %v", inputs)
	}
	if int32(inputs[1]) != p.Setpoint() {
		t.Errorf("setpoint input = %d, want %d", int32(inputs[1]), p.Setpoint())
	}
	// Ideal controller: command = setpoint.
	for i := 0; i < 100; i++ {
		inputs = p.Exchange([]uint32{uint32(p.Setpoint())})
	}
	sensor := float64(int32(inputs[0])) / 256
	if math.Abs(sensor-50) > 1 {
		t.Errorf("plant settled at %.2f, want ~50", sensor)
	}
	// Each of the 100 exchanges with a command advanced the plant exactly
	// one step of its recurrence, and the first, without one, none.
	want := 0.0
	for i := 0; i < 100; i++ {
		want += 1.0 / 8 * (float64(p.Setpoint())/256 - want)
	}
	if p.State() != want {
		t.Errorf("plant state %v after 100 commanded exchanges, want %v", p.State(), want)
	}
}

func TestFirstOrderPlantNoInputHolds(t *testing.T) {
	p := &FirstOrderPlant{}
	p.Reset(map[string]float64{"x0": 10})
	// Exchange with no outputs does not move the state.
	in := p.Exchange(nil)
	if got := float64(int32(in[0])) / 256; math.Abs(got-10) > 0.01 {
		t.Errorf("state moved without input: %g", got)
	}
}

func TestEngineSpinsUpAndSaturates(t *testing.T) {
	e := &Engine{}
	e.Reset(map[string]float64{"setpoint": 120})
	in := e.Exchange(nil)
	if len(in) != 2 {
		t.Fatalf("inputs = %v", in)
	}
	// Constant full fuel: speed rises and is drag-limited.
	var speed float64
	fuel := uint32(uint16(200 * 256)) // large positive fuel command
	for i := 0; i < 2000; i++ {
		in = e.Exchange([]uint32{fuel})
		speed = float64(int32(in[0])) / 256
	}
	if speed <= 10 {
		t.Errorf("engine never spun up: %g", speed)
	}
	// Negative fuel cannot drive the speed below zero.
	e.Reset(nil)
	negFuel := int32(-100 * 256)
	neg := uint32(negFuel)
	for i := 0; i < 50; i++ {
		in = e.Exchange([]uint32{neg})
	}
	if got := int32(in[0]); got < 0 {
		t.Errorf("engine speed went negative: %d", got)
	}
}

func TestParamOr(t *testing.T) {
	if got := paramOr(nil, "x", 3); got != 3 {
		t.Errorf("default = %g", got)
	}
	if got := paramOr(map[string]float64{"x": 7}, "x", 3); got != 7 {
		t.Errorf("override = %g", got)
	}
}

// Property: plant dynamics are a contraction towards gain*u for constant
// input, so the state stays bounded by max(|x0|, |gain*u|).
func TestPropertyPlantBounded(t *testing.T) {
	f := func(x0Raw int16, uRaw int16) bool {
		x0 := float64(x0Raw) / 100
		u := float64(uRaw) / 100
		p := &FirstOrderPlant{}
		p.Reset(map[string]float64{"x0": x0})
		bound := math.Max(math.Abs(x0), math.Abs(u)) + 1
		cmd := uint32(int32(u * 256))
		for i := 0; i < 200; i++ {
			p.Exchange([]uint32{cmd})
			if math.Abs(p.State()) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExchangeReturnsInstanceBuffer pins the contract on Simulator for the
// built-in simulators: what Exchange returns is the instance's own buffer
// — the next Exchange overwrites it in place, so a caller that kept the
// slice without copying would see the new values — and two instances, or
// an instance and one restored from its snapshot, never share one.
func TestExchangeReturnsInstanceBuffer(t *testing.T) {
	reg := NewRegistry()
	for _, name := range reg.Names() {
		t.Run(name, func(t *testing.T) {
			a, _ := reg.New(name, map[string]float64{"x0": 3})
			b, _ := reg.New(name, map[string]float64{"x0": 3})
			first := a.Exchange(nil)
			kept := append([]uint32(nil), first...)
			other := b.Exchange(nil)
			restored, _ := reg.New(name, nil)
			if err := restored.RestoreState(a.SnapshotState()); err != nil {
				t.Fatal(err)
			}
			second := a.Exchange([]uint32{90 << 8})
			if &second[0] != &first[0] {
				t.Errorf("the second exchange returned another buffer: the exchange allocates")
			}
			if reflect.DeepEqual(second, kept) {
				t.Fatalf("both exchanges returned %v: nothing to tell the buffers by", kept)
			}
			if !reflect.DeepEqual(other, kept) {
				t.Errorf("another instance's values %v changed with this one's exchange (were %v)", other, kept)
			}
			if third := restored.Exchange([]uint32{90 << 8}); &third[0] == &second[0] || !reflect.DeepEqual(third, second) {
				t.Errorf("restored instance returned %v (own buffer: %v), the original %v", third, &third[0] != &second[0], second)
			}
		})
	}
}
