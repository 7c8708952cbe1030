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
			ss, ok := sim.(Snapshotter)
			if !ok {
				t.Fatalf("built-in simulator %q does not implement Snapshotter", name)
			}
			drive(sim, 0, 5)
			state := ss.SnapshotState()
			want := drive(sim, 5, 10)

			// Restoring onto a fresh instance replays the same future.
			fresh, err := reg.New(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.(Snapshotter).RestoreState(state); err != nil {
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
			ss := sim.(Snapshotter)
			drive(sim, 0, 3)
			state := ss.SnapshotState()
			want := drive(sim, 3, 4) // advances the live simulator

			// The captured state must not have moved with it: two fresh
			// instances restored from it behave identically.
			a, _ := reg.New(name, nil)
			b, _ := reg.New(name, nil)
			if err := a.(Snapshotter).RestoreState(state); err != nil {
				t.Fatal(err)
			}
			if err := b.(Snapshotter).RestoreState(state); err != nil {
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
