package envsim

import (
	"reflect"
	"testing"
)

// drive advances a simulator n steps with a deterministic command stream
// and returns copies of the produced inputs (what Exchange returns is only
// good until the next Exchange).
func drive(sim Simulator, from, n int) [][]uint32 {
	var got [][]uint32
	for i := from; i < from+n; i++ {
		var outs []uint32
		if i > 0 {
			outs = []uint32{uint32(i * 100)}
		}
		got = append(got, append([]uint32(nil), sim.Exchange(outs)...))
	}
	return got
}

func TestSnapshotRestoreAllSimulators(t *testing.T) {
	reg := NewRegistry()
	for _, name := range reg.Names() {
		t.Run(name, func(t *testing.T) {
			sim, err := reg.New(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			drive(sim, 0, 5)
			state := sim.SnapshotState()
			want := drive(sim, 5, 10)

			// Restoring onto a fresh instance replays the same future.
			fresh, err := reg.New(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.RestoreState(state); err != nil {
				t.Fatal(err)
			}
			if got := drive(fresh, 5, 10); !reflect.DeepEqual(want, got) {
				t.Errorf("restored %q diverged:\nwant %v\ngot  %v", name, want, got)
			}
		})
	}
}

func TestSnapshotStateImmutable(t *testing.T) {
	reg := NewRegistry()
	for _, name := range reg.Names() {
		t.Run(name, func(t *testing.T) {
			sim, _ := reg.New(name, nil)
			ss := sim
			drive(sim, 0, 3)
			state := ss.SnapshotState()
			want := drive(sim, 3, 4) // advances the live simulator

			// The captured state must not have moved with it: two fresh
			// instances restored from it behave identically.
			a, _ := reg.New(name, nil)
			b, _ := reg.New(name, nil)
			if err := a.RestoreState(state); err != nil {
				t.Fatal(err)
			}
			if err := b.RestoreState(state); err != nil {
				t.Fatal(err)
			}
			ga, gb := drive(a, 3, 4), drive(b, 3, 4)
			if !reflect.DeepEqual(ga, gb) {
				t.Errorf("two restores diverged: %v vs %v", ga, gb)
			}
			if !reflect.DeepEqual(ga, want) {
				t.Errorf("restore after advance diverged: want %v got %v", want, ga)
			}
		})
	}
}

// TestReplayFallbackEquivalence mirrors the runner's fallback for
// simulators without snapshot support: replaying the logged Exchange
// calls against a fresh instance must reproduce the same state as a
// direct snapshot restore.
func TestReplayFallbackEquivalence(t *testing.T) {
	reg := NewRegistry()
	for _, name := range reg.Names() {
		t.Run(name, func(t *testing.T) {
			recorded, _ := reg.New(name, nil)
			var log [][]uint32
			for i := 0; i < 6; i++ {
				var outs []uint32
				if i > 0 {
					outs = []uint32{uint32(i * 77)}
				}
				log = append(log, outs)
				recorded.Exchange(outs)
			}
			want := drive(recorded, 6, 5)

			replayed, _ := reg.New(name, nil)
			for _, outs := range log {
				replayed.Exchange(outs)
			}
			if got := drive(replayed, 6, 5); !reflect.DeepEqual(want, got) {
				t.Errorf("replayed %q diverged:\nwant %v\ngot  %v", name, want, got)
			}
		})
	}
}

// TestEqualStateIsDeepEqual: EqualState says what reflect.DeepEqual of a
// fresh snapshot with the stored one says — equal to the state it was
// taken in, to a restored instance, and after a step that leaves the state
// where it was; unequal after a step that moves it, and to another
// simulator's state — and it allocates nothing.
func TestEqualStateIsDeepEqual(t *testing.T) {
	reg := NewRegistry()
	for _, name := range reg.Names() {
		t.Run(name, func(t *testing.T) {
			sim, _ := reg.New(name, nil)
			ss := sim
			drive(sim, 0, 4)
			state := ss.SnapshotState()
			check := func(what string, s Simulator, state any) {
				t.Helper()
				if got, want := s.EqualState(state), reflect.DeepEqual(s.SnapshotState(), state); got != want {
					t.Errorf("%s: EqualState %v, DeepEqual of the snapshots %v", what, got, want)
				}
			}
			check("as taken", ss, state)
			if !ss.EqualState(state) {
				t.Error("a simulator is not in the state it was just snapshotted in")
			}
			fresh, _ := reg.New(name, nil)
			check("fresh", fresh, state)
			if err := fresh.RestoreState(state); err != nil {
				t.Fatal(err)
			}
			check("restored", fresh, state)
			drive(sim, 4, 1)
			check("a step on", ss, state)
			for _, other := range reg.Names() {
				if other != name {
					o, _ := reg.New(other, nil)
					check("against "+other, ss, o.SnapshotState())
				}
			}
			if n := testing.AllocsPerRun(10, func() { ss.EqualState(state) }); n != 0 {
				t.Errorf("EqualState allocates %v times", n)
			}
		})
	}
	// A plant with a constant command settles, in a few hundred steps, in
	// a state that a further step leaves exactly as it was.
	p := &FirstOrderPlant{}
	p.Reset(nil)
	cmd := []uint32{100 << 8}
	for i := 0; i < 2000; i++ {
		p.Exchange(cmd)
	}
	state := p.SnapshotState()
	p.Exchange(cmd)
	if !p.EqualState(state) {
		t.Errorf("the plant still moves after 2,000 equal commands: x %v", p.State())
	}
}
