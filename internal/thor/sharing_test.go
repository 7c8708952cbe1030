package thor_test

import (
	"reflect"
	"testing"

	"goofi/internal/thor"
)

// TestSharedSnapshotsStayPut: SnapshotSharing shares with the previous
// snapshot what did not change since it — memory pages, the page table,
// the trap handler map, the port set. A board that runs on
// after every capture, and has each of those changed now and then (and is
// once restored to an earlier sharing snapshot and run on from there),
// must leave every earlier snapshot as the deep copy taken beside it; and
// a Restore or a Skip from a sharing snapshot must leave a CPU as the deep
// copy's does, there and after running on.
func TestSharedSnapshotsStayPut(t *testing.T) {
	c := rejoinCPU(t, 2)
	type capture struct{ shared, deep *thor.Snapshot }
	var caps []capture
	var prev *thor.Snapshot
	sharedWhat := map[string]int{}
	same := func(a, b any) bool { return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer() }
	inputs := []uint32{2, 2, 2, 5, 2, 2, 3, 3, 7, 3}
	for i := range 60 {
		s, _ := c.SnapshotSharing(prev)
		caps = append(caps, capture{s, c.Snapshot()})
		if prev != nil {
			for what, shared := range map[string]bool{
				"page table":    same(s.MemPages, prev.MemPages),
				"page":          same(s.MemPages[0], prev.MemPages[0]),
				"trap handlers": same(s.TrapHandlers, prev.TrapHandlers),
				"port set":      s.Ports == prev.Ports,
			} {
				if shared {
					sharedWhat[what]++
				}
			}
		}
		prev = s
		// Change the board: an iteration always, and now and then a
		// trap handler, a queue the loop never reads, a
		// word of a page it never writes — or a restore of an earlier
		// capture.
		switch i % 6 {
		case 1:
			c.SetTrapHandler(4, uint32(0x100+4*i))
		case 3:
			c.Ports().PushInput(3, uint32(i))
		case 4:
			if err := c.WriteWord32(uint32(20*thor.SnapshotPageBytes+4*(i%8)), uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
		if i == 30 {
			if err := c.Restore(caps[12].shared); err != nil {
				t.Fatal(err)
			}
		}
		if st := iterate(t, c, inputs[i%len(inputs)]); st != thor.StatusIterationEnd {
			t.Fatalf("iteration %d ended the loop: %v", i, st)
		}
		for j, cp := range caps {
			if !reflect.DeepEqual(cp.shared, cp.deep) {
				t.Fatalf("after capture %d the board's changes reached capture %d", i, j)
			}
		}
	}
	for _, what := range []string{"page table", "page", "trap handlers", "port set"} {
		if sharedWhat[what] == 0 {
			t.Errorf("no capture shared its %s with the one before", what)
		}
	}
	t.Logf("of %d captures, shared with the one before: %v", len(caps), sharedWhat)

	// A Restore, and a Skip onto a later capture of the run with a shift,
	// from a sharing snapshot and from its deep copy.
	equalCPUs := func(what string, a, b *thor.CPU) {
		t.Helper()
		for k := 0; ; k++ {
			if sa, sb := a.Snapshot(), b.Snapshot(); !reflect.DeepEqual(sa, sb) {
				t.Fatalf("%s: the CPUs differ after %d iterations", what, k)
			}
			if k == 3 {
				return
			}
			sta, stb := iterate(t, a, 2), iterate(t, b, 2)
			if sta != stb {
				t.Fatalf("%s: iteration %d ends %v and %v", what, k, sta, stb)
			}
		}
	}
	d := thor.Shift{Cycle: 40, Instret: 9, DHits: 3}
	for j := 0; j+5 < len(caps); j += 3 {
		a, b := thor.New(thor.DefaultConfig()), thor.New(thor.DefaultConfig())
		if err := a.Restore(caps[j].shared); err != nil {
			t.Fatal(err)
		}
		if err := b.Restore(caps[j].deep); err != nil {
			t.Fatal(err)
		}
		equalCPUs("restore", a, b)
		if err := a.Skip(caps[j+5].shared, d, 0); err != nil {
			t.Fatal(err)
		}
		if err := b.Skip(caps[j+5].deep, d, 0); err != nil {
			t.Fatal(err)
		}
		equalCPUs("skip", a, b)
	}
}
