package thor_test

import (
	"bytes"
	"reflect"
	"testing"

	"goofi/internal/asm"
	"goofi/internal/thor"
)

// rejoinLoopSource is a closed loop whose state one iteration's input
// cannot outlive: it keeps only the last input, in registers and in
// memory. An input of n spins a delay loop n times; 7 also takes a
// recovered assertion (the handler's detour logs an event), 99 halts and
// 98 ends in an unhandled trap.
const rejoinLoopSource = `
loop:
	kick
	in r1, 0
	mov r4, r1
	la r6, last
	st [r6], r4
	ld r5, [r6]
	mov r2, r1
delay:
	subi r2, r2, 1
	cmpi r2, 0
	bgt delay
	cmpi r1, 99
	beq done
	cmpi r1, 98
	beq fail
	cmpi r1, 7
	bne go
	trap 1
go:
	out 1, r4
	trap 2
	bra loop
handler:
	bra go
fail:
	trap 3
done:
	halt
last:
	.word 0
`

// rejoinCPU is a fresh CPU running rejoinLoopSource, trap 1 handled,
// with its first input queued.
func rejoinCPU(t *testing.T, first uint32) *thor.CPU {
	t.Helper()
	prog, err := asm.Assemble(rejoinLoopSource)
	if err != nil {
		t.Fatal(err)
	}
	c := thor.New(thor.DefaultConfig())
	if err := c.LoadMemory(0, prog.Image); err != nil {
		t.Fatal(err)
	}
	h, err := prog.Symbol("handler")
	if err != nil {
		t.Fatal(err)
	}
	c.SetTrapHandler(1, h)
	c.Ports().PushInput(0, first)
	return c
}

// iterate runs c to its next iteration end and exchanges there: the
// outputs are drained and in is queued. At the loop's end it returns the
// final status instead.
func iterate(t *testing.T, c *thor.CPU, in uint32) thor.Status {
	t.Helper()
	for {
		switch st := c.Run(10_000); st {
		case thor.StatusOutOfBudget:
			if err := c.ClearOutOfBudget(); err != nil {
				t.Fatal(err)
			}
		case thor.StatusIterationEnd:
			c.Ports().DrainOutput(1)
			c.Ports().PushInput(0, in)
			if err := c.ResumeIteration(); err != nil {
				t.Fatal(err)
			}
			return st
		default:
			return st
		}
	}
}

// feed runs c through inputs, one iteration each, and returns the status
// the last left it in.
func feed(t *testing.T, c *thor.CPU, inputs []uint32) thor.Status {
	t.Helper()
	st := thor.StatusRunning
	for _, in := range inputs {
		if st = iterate(t, c, in); st != thor.StatusIterationEnd {
			break
		}
	}
	return st
}

// overwriteLine copies one line of a cache onto another that differs from
// it: a filled line onto an empty one, or the other way.
func overwriteLine[L comparable](t *testing.T, lines *[thor.CacheLines]L) {
	t.Helper()
	for i := 1; i < len(lines); i++ {
		if lines[i] != lines[0] {
			lines[0] = lines[i]
			return
		}
	}
	t.Fatal("every line of the cache is the same")
}

// TestRejoinsRejectsEveryField: a snapshot that differs from the CPU in one
// field is refused — unless the field is a free-running counter, which
// Rejoins returns as the shift, the event log, which is history, or the
// pins' halt and error lines, which every read recomputes. Every field of
// Snapshot has a row, so a field added later cannot go uncompared.
func TestRejoinsRejectsEveryField(t *testing.T) {
	c := rejoinCPU(t, 1)
	if st := feed(t, c, []uint32{2, 7, 3}); st != thor.StatusIterationEnd {
		t.Fatalf("the loop ended early: %v", st)
	}
	if _, ok := c.Rejoins(c.Snapshot()); !ok {
		t.Fatal("the CPU does not rejoin its own snapshot")
	}
	back := func(d thor.Shift) thor.Shift { return thor.Shift{}.Sub(d) }
	cases := []struct {
		field  string
		mutate func(s *thor.Snapshot)
		ok     bool
		shift  thor.Shift // when ok: the CPU's offset from the mutated snapshot
	}{
		{field: "Regs", mutate: func(s *thor.Snapshot) { s.Regs[4]++ }},
		{field: "PC", mutate: func(s *thor.Snapshot) { s.PC += 4 }},
		{field: "Flags", mutate: func(s *thor.Snapshot) { s.Flags.C = !s.Flags.C }},
		{field: "MemPages", mutate: func(s *thor.Snapshot) {
			p := bytes.Clone(s.MemPages[0])
			p[len(p)-1] ^= 1
			s.MemPages[0] = p
		}},
		{field: "MemPages", mutate: func(s *thor.Snapshot) {
			// A page the CPU never wrote, non-zero in the snapshot.
			p := make([]byte, len(s.MemPages[40]))
			p[9] = 1
			s.MemPages[40] = p
		}},
		{field: "MemLen", mutate: func(s *thor.Snapshot) { s.MemLen += 4 }},
		{field: "ICache", mutate: func(s *thor.Snapshot) { overwriteLine(t, &s.ICache) }},
		{field: "DCache", mutate: func(s *thor.Snapshot) { overwriteLine(t, &s.DCache) }},
		{field: "IHits", mutate: func(s *thor.Snapshot) { s.IHits += 5 }, ok: true, shift: back(thor.Shift{IHits: 5})},
		{field: "IMisses", mutate: func(s *thor.Snapshot) { s.IMisses += 5 }, ok: true, shift: back(thor.Shift{IMisses: 5})},
		{field: "DHits", mutate: func(s *thor.Snapshot) { s.DHits += 5 }, ok: true, shift: back(thor.Shift{DHits: 5})},
		{field: "DMisses", mutate: func(s *thor.Snapshot) { s.DMisses += 5 }, ok: true, shift: back(thor.Shift{DMisses: 5})},
		{field: "Cycle", mutate: func(s *thor.Snapshot) { s.Cycle += 3 }},
		{field: "Cycle", mutate: func(s *thor.Snapshot) { s.Cycle += 3; s.LastKick += 3 }, ok: true,
			shift: back(thor.Shift{Cycle: 3})},
		{field: "Instret", mutate: func(s *thor.Snapshot) { s.Instret += 2 }, ok: true, shift: back(thor.Shift{Instret: 2})},
		{field: "LastKick", mutate: func(s *thor.Snapshot) { s.LastKick-- }},
		{field: "Status", mutate: func(s *thor.Snapshot) { s.Status = thor.StatusHalted }},
		{field: "Detection", mutate: func(s *thor.Snapshot) { s.Detection = &thor.Detection{Mechanism: thor.EDMWatchdog} }},
		{field: "Events", mutate: func(s *thor.Snapshot) { s.Events = append(s.Events, thor.Detection{Cycle: 1}) }, ok: true},
		{field: "TrapHandlers", mutate: func(s *thor.Snapshot) { s.TrapHandlers[4] = 8 }},
		{field: "TrapHandlers", mutate: func(s *thor.Snapshot) { s.TrapHandlers[1] += 4 }},
		{field: "Pins", mutate: func(s *thor.Snapshot) { s.Pins.Address ^= 4 }},
		{field: "Pins", mutate: func(s *thor.Snapshot) { s.Pins.Write = !s.Pins.Write }},
		{field: "Pins", mutate: func(s *thor.Snapshot) { s.Pins.Halt, s.Pins.Error = true, true }, ok: true},
		{field: "Force", mutate: func(s *thor.Snapshot) { s.Force.DataInMask = 1 }},
		{field: "Ports", mutate: func(s *thor.Snapshot) { s.Ports.PushInput(0, 5) }},
		{field: "Ports", mutate: func(s *thor.Snapshot) { s.Ports.PushInput(3, 5) }},
		{field: "Ports", mutate: func(s *thor.Snapshot) { s.Ports = thor.NewPortSet() }},
	}
	covered := map[string]bool{}
	for i, tc := range cases {
		covered[tc.field] = true
		s := c.Snapshot()
		tc.mutate(s)
		d, ok := c.Rejoins(s)
		if ok != tc.ok || d != tc.shift {
			t.Errorf("row %d, %s changed: rejoins %v with shift %+v, want %v with %+v", i, tc.field, ok, d, tc.ok, tc.shift)
		}
	}
	st := reflect.TypeOf(thor.Snapshot{})
	for i := 0; i < st.NumField(); i++ {
		if name := st.Field(i).Name; !covered[name] {
			t.Errorf("Snapshot.%s has no row", name)
		}
	}
}

// TestSkipEqualsRunningOn: a run that took the handler's detour once more
// than the reference and spun its delay loop longer — an extra event,
// extra cycles, instructions and cache hits — and is back in the
// reference's state a few iterations later is the reference shifted; Skip
// to the reference's end state, moved by the shift, leaves exactly the
// machine that running it on does: memory, caches, counters, ports, pins,
// its own events and the reference's later ones, shifted, and the pending
// detection. The reference's suffix takes the detour too, and the run ends
// in a halt or in an unhandled trap.
func TestSkipEqualsRunningOn(t *testing.T) {
	for _, last := range []uint32{99, 98} {
		ref, run := rejoinCPU(t, 1), rejoinCPU(t, 1)
		feed(t, ref, []uint32{2, 7, 3, 4, 5, 6})
		feed(t, run, []uint32{7, 7, 5, 4, 5, 6})
		at, since := ref.Snapshot(), ref.NumEvents()
		d, ok := run.Rejoins(at)
		if !ok {
			t.Fatalf("end %d: the run does not rejoin the reference", last)
		}
		if d.Cycle == 0 || d.Instret == 0 || d.IHits == 0 {
			t.Fatalf("end %d: shift %+v, want the detour's cycles, instructions and hits", last, d)
		}
		suffix := []uint32{8, 7, 9, last, 0} // the last iteration reads last
		if st := feed(t, ref, suffix); st == thor.StatusIterationEnd {
			t.Fatalf("end %d: the reference did not end", last)
		}
		end := ref.Snapshot()

		ranOn := thor.New(thor.DefaultConfig())
		if err := ranOn.Restore(run.Snapshot()); err != nil {
			t.Fatal(err)
		}
		feed(t, ranOn, suffix)
		if err := run.Skip(end, d, since); err != nil {
			t.Fatal(err)
		}
		got, want := run.Snapshot(), ranOn.Snapshot()
		// The run's two detours, the reference's later one, and the
		// unhandled trap that ends the run on 98.
		wantEvents := 3
		if last == 98 {
			wantEvents++
		}
		if want.Status != end.Status || len(want.Events) != wantEvents {
			t.Fatalf("end %d: ran on to %v with events %+v", last, want.Status, want.Events)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("end %d: skipped to\n%+v\nran on to\n%+v", last, got, want)
		}
		gs, ws := run.ScanRead(), ranOn.ScanRead()
		if !gs.Equal(ws) {
			t.Errorf("end %d: the scan chains differ", last)
		}
	}
}

// TestAdvanceEqualsRunningOn: once the loop's input stops changing, its
// state at an iteration boundary is the one a boundary earlier but for
// the counters; Advance by m times that shift leaves the machine that
// running m more iterations does — scan chain (the counters in it)
// included. One more iteration from either agrees too.
func TestAdvanceEqualsRunningOn(t *testing.T) {
	const m = 40
	c := rejoinCPU(t, 1)
	feed(t, c, []uint32{2, 7, 3, 5, 5})
	prev := c.Snapshot()
	feed(t, c, []uint32{5})
	d, ok := c.Rejoins(prev)
	if !ok || d.Cycle == 0 || d.Instret == 0 {
		t.Fatalf("a steady iteration: rejoins %v with shift %+v", ok, d)
	}
	ranOn := thor.New(thor.DefaultConfig())
	if err := ranOn.Restore(c.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		feed(t, ranOn, []uint32{5})
	}
	c.Advance(d.Times(m))
	for _, step := range []string{"advanced", "one more iteration"} {
		if got, ok := ranOn.Rejoins(c.Snapshot()); !ok || got != (thor.Shift{}) {
			t.Errorf("%s: ran on to a machine that rejoins %v with shift %+v", step, ok, got)
		}
		if !c.ScanRead().Equal(ranOn.ScanRead()) || c.NumEvents() != ranOn.NumEvents() {
			t.Errorf("%s: scan chains or event counts differ", step)
		}
		feed(t, c, []uint32{5})
		feed(t, ranOn, []uint32{5})
	}
}
