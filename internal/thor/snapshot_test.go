package thor_test

import (
	"bytes"
	"reflect"
	"testing"

	"goofi/internal/thor"
)

// snapshotWorkload exercises registers, caches, memory, ports and the
// trap/event machinery: a loop that accumulates and emits on a port, then
// a recovered trap, then a halt.
const snapshotWorkload = `
	ldi r1, 0
	ldi r2, 1
loop:
	add r1, r1, r2
	out 5, r1
	la r3, buf
	st [r3], r1
	addi r2, r2, 1
	cmpi r2, 40
	ble loop
	trap 7
	halt
handler:
	halt
buf:
	.word 0
`

// runToCompletion drives the CPU to a halt, resuming iteration ends, and
// returns the drained port-5 output stream.
func runToCompletion(t *testing.T, c *thor.CPU) []uint32 {
	t.Helper()
	for {
		switch st := c.Run(1_000_000); st {
		case thor.StatusHalted, thor.StatusDetected:
			return c.Ports().DrainOutput(5)
		case thor.StatusIterationEnd:
			if err := c.ResumeIteration(); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unexpected status %v", st)
		}
	}
}

// finalState captures everything observable after a run for comparison.
type finalState struct {
	scan    []byte
	mem     []byte
	status  thor.Status
	events  []thor.Detection
	outputs []uint32
	cycle   uint64
	instret uint64
}

func captureFinal(t *testing.T, c *thor.CPU, outputs []uint32) finalState {
	t.Helper()
	scan, err := c.ScanRead().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := c.ReadMemory(0, 256)
	if err != nil {
		t.Fatal(err)
	}
	return finalState{
		scan:    scan,
		mem:     mem,
		status:  c.Status(),
		events:  c.Events(),
		outputs: outputs,
		cycle:   c.Cycle(),
		instret: c.Instret(),
	}
}

func TestSnapshotRestoreFullFidelity(t *testing.T) {
	c, prog := load(t, thor.DefaultConfig(), snapshotWorkload)
	c.SetTrapHandler(7, prog.MustSymbol("handler"))
	c.Ports().PushInput(3, 11, 22)

	// Run partway into the loop, then snapshot.
	if st := c.Run(60); st != thor.StatusOutOfBudget {
		t.Fatalf("mid-run status = %v", st)
	}
	if err := c.ClearOutOfBudget(); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	preScan, _ := c.ScanRead().MarshalBinary()

	// Cold continuation to the end.
	want := captureFinal(t, c, runToCompletion(t, c))
	if want.status != thor.StatusHalted {
		t.Fatalf("final status = %v", want.status)
	}
	if len(want.events) != 1 || want.events[0].Mechanism != thor.EDMAssertion {
		t.Fatalf("events = %+v, want one recovered assertion", want.events)
	}

	// Restore onto the same CPU and re-run: every observable must match.
	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if s, _ := c.ScanRead().MarshalBinary(); !bytes.Equal(s, preScan) {
		t.Fatal("restored scan state differs from snapshot point")
	}
	got := captureFinal(t, c, runToCompletion(t, c))
	if !reflect.DeepEqual(want, got) {
		t.Errorf("same-CPU restore diverged:\nwant %+v\ngot  %+v", want, got)
	}

	// Restore onto a different board (cross-board forwarding): identical.
	c2 := thor.New(thor.DefaultConfig())
	if err := c2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got2 := captureFinal(t, c2, runToCompletion(t, c2))
	if !reflect.DeepEqual(want, got2) {
		t.Errorf("cross-CPU restore diverged:\nwant %+v\ngot  %+v", want, got2)
	}
}

func TestSnapshotImmutableWhileCPUAdvances(t *testing.T) {
	c, _ := load(t, thor.DefaultConfig(), snapshotWorkload)
	if st := c.Run(50); st != thor.StatusOutOfBudget {
		t.Fatalf("status = %v", st)
	}
	if err := c.ClearOutOfBudget(); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	scanAt, _ := c.ScanRead().MarshalBinary()
	memAt, _ := c.ReadMemory(0, 256)

	// Advance well past the snapshot point: stores mutate CPU memory.
	runToCompletion(t, c)

	c2 := thor.New(thor.DefaultConfig())
	if err := c2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	scanNow, _ := c2.ScanRead().MarshalBinary()
	memNow, _ := c2.ReadMemory(0, 256)
	if !bytes.Equal(scanAt, scanNow) {
		t.Error("snapshot scan state mutated by later execution")
	}
	if !bytes.Equal(memAt, memNow) {
		t.Error("snapshot memory mutated by later execution")
	}
}

// TestSnapshotSharingSharesUnchangedPages: a snapshot's fresh bytes are its
// non-zero pages — every all-zero page is one zero page shared by every
// snapshot — and a later snapshot of the same run shares each page that did
// not change with the earlier one.
func TestSnapshotSharingSharesUnchangedPages(t *testing.T) {
	const page = thor.SnapshotPageBytes
	c, _ := load(t, thor.DefaultConfig(), snapshotWorkload)
	// A second non-zero page, which the workload never writes.
	if err := c.LoadMemory(8*page, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if st := c.Run(40); st != thor.StatusOutOfBudget {
		t.Fatalf("status = %v", st)
	}
	if err := c.ClearOutOfBudget(); err != nil {
		t.Fatal(err)
	}
	first, firstBytes := c.SnapshotSharing(nil)
	if firstBytes <= 2*page || firstBytes >= 3*page {
		t.Fatalf("first snapshot reports %d fresh bytes, want two pages and the bookkeeping", firstBytes)
	}

	// A few more instructions store into the program's page only.
	if st := c.Run(40); st != thor.StatusOutOfBudget {
		t.Fatalf("status = %v", st)
	}
	if err := c.ClearOutOfBudget(); err != nil {
		t.Fatal(err)
	}
	second, secondBytes := c.SnapshotSharing(first)
	if secondBytes >= firstBytes-page/2 {
		t.Errorf("second snapshot fresh bytes %d, first %d: the unchanged page was not shared", secondBytes, firstBytes)
	}
	same := func(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
	if same(first.MemPages[0], second.MemPages[0]) {
		t.Error("the page the workload wrote is shared")
	}
	if !same(first.MemPages[8], second.MemPages[8]) {
		t.Error("the unchanged non-zero page is not shared")
	}
	other := thor.New(thor.DefaultConfig()).Snapshot()
	for i := 1; i < len(second.MemPages); i++ {
		if i != 8 && !(same(first.MemPages[i], second.MemPages[i]) && same(second.MemPages[i], other.MemPages[0])) {
			t.Fatalf("all-zero page %d is not the shared zero page", i)
		}
	}

	// Shared pages must still restore the first snapshot exactly, onto a
	// fresh board and onto one whose memory holds something else.
	want := bytes.Join(first.MemPages, nil)
	for _, cA := range []*thor.CPU{thor.New(thor.DefaultConfig()), scribbled(t), c} {
		if err := cA.Restore(first); err != nil {
			t.Fatal(err)
		}
		if cA.Cycle() != first.Cycle {
			t.Errorf("restored cycle %d != snapshot cycle %d", cA.Cycle(), first.Cycle)
		}
		if got, _ := cA.ReadMemory(0, len(want)); !bytes.Equal(got, want) {
			t.Error("restored memory differs from the snapshot's")
		}
	}
}

// scribbled is a fresh CPU with a non-zero byte in every page.
func scribbled(t *testing.T) *thor.CPU {
	t.Helper()
	c := thor.New(thor.DefaultConfig())
	for a := uint32(0); a < c.Config().MemSize; a += thor.SnapshotPageBytes / 2 {
		if err := c.WriteWord32(a, 0xdeadbeef); err != nil {
			t.Fatal(err)
		}
	}
	return c
}
