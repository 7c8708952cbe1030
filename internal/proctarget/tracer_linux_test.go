//go:build linux && amd64

package proctarget

import (
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"
)

// realPerfEventOpen is perfEventOpen before any test stands in for it.
var realPerfEventOpen = perfEventOpen

var counting struct {
	once    sync.Once
	refused error
}

// countingRefused returns the kernel's refusal of a counting breakpoint
// on this host, or nil where it grants one. It asks once, for a breakpoint
// on the test's own thread at an address nothing executes, and closes it
// at once.
func countingRefused() error {
	counting.once.Do(func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		fd, err := realPerfEventOpen(0, 0x1000, 1)
		if err == nil {
			syscall.Close(fd)
		} else if refusal(err) {
			counting.refused = err
		}
	})
	return counting.refused
}

// atWorkload forks the victim under a tracer stopped at main.workload.
// The calling test must have locked its OS thread.
func atWorkload(t *testing.T, bin string) *tracer {
	t.Helper()
	vi, err := loadVictim(bin)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := startTraced(bin)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Shutdown)
	if hit, ei, err := tr.toWorkload(vi); err != nil || !hit {
		t.Fatalf("victim did not reach main.workload: %+v, %v", ei, err)
	}
	return tr
}

// TestProcStepCountsOnlyRetiredInstructions: a signal queued to the
// stopped child surfaces as a signal-delivery stop, at which no
// instruction has retired, and must not be charged to the step budget.
// SIGCONT is the signal to use: the Go runtime installs no handler for
// it (it does for SIGWINCH, and the budget would be spent inside the
// handler), so once forwarded it is discarded and the five steps are the
// same five instructions a clean child executes. It is sent with tgkill:
// a process-directed signal goes to a thread that is not ptrace-stopped,
// and the victim's other runtime threads are not traced.
func TestProcStepCountsOnlyRetiredInstructions(t *testing.T) {
	bin := victimBin(t, "matmul")
	lockThread()
	defer unlockThread()

	stepFive := func(tr *tracer) uint64 {
		t.Helper()
		steps, ei, err := tr.Step(5)
		if err != nil || ei != nil || steps != 5 {
			t.Fatalf("Step(5) = %d, %+v, %v", steps, ei, err)
		}
		rf, err := tr.Regs()
		if err != nil {
			t.Fatal(err)
		}
		return rf[slotRIP]
	}
	clean := stepFive(atWorkload(t, bin))

	signalled := atWorkload(t, bin)
	if err := syscall.Tgkill(signalled.PID(), signalled.PID(), syscall.SIGCONT); err != nil {
		t.Fatal(err)
	}
	before := mSteps.Value()
	got := stepFive(signalled)
	if got != clean {
		t.Fatalf("rip after Step(5) with a signal pending = %#x, clean child %#x", got, clean)
	}
	// The delivery stop cost a request, not a step.
	if requests := mSteps.Value() - before; requests != 6 {
		t.Fatalf("Step(5) issued %d PTRACE_SINGLESTEP requests, want 6 (one spent on the delivery stop)", requests)
	}
}

// TestProcCountedBreakpointFiresWhereTheChildStands: a child continued
// on the address a counting breakpoint watches counts that execution: with
// k = 1 it stops there again before running an instruction, every
// register as it was, the resume flag clear. The guide counts step 0 so.
// Both kinds of child stand at main.workload: an exec'd one, stopped by an
// int3, and a forked one, given its zygote's registers.
func TestProcCountedBreakpointFiresWhereTheChildStands(t *testing.T) {
	bin := victimBin(t, "matmul")
	skipUnlessCounting(t)
	vi, err := loadVictim(bin)
	if err != nil {
		t.Fatal(err)
	}
	lockThread()
	defer unlockThread()
	w := startWatchdog(time.Minute)
	defer w.stop()
	z, ended, err := newZygote(vi, w)
	if err != nil || ended != nil {
		t.Fatalf("no zygote: %v, %+v", err, ended)
	}
	t.Cleanup(z.tr.Shutdown)
	forked, err := z.fork()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(forked.Shutdown)
	for name, tr := range map[string]*tracer{"exec'd": atWorkload(t, bin), "forked": forked} {
		before, err := tr.Regs()
		if err != nil {
			t.Fatal(err)
		}
		if hit, ei, err := tr.ContToCount(vi.workload, 1); err != nil || !hit {
			t.Fatalf("%s child: no stop on the first execution of main.workload: %+v, %v", name, ei, err)
		}
		after, err := tr.Regs()
		if err != nil {
			t.Fatal(err)
		}
		if after != before || after[17]&eflagsRF != 0 { // slot 17: eflags
			t.Fatalf("%s child moved, or kept its resume flag:\nbefore %#x\nafter  %#x", name, before, after)
		}
	}
}

// TestProcRefusedCountingBreakpointHops: on a host whose kernel refuses
// the counting breakpoint (EACCES: perf_event_paranoid above 2), a board
// asks once, takes the refusal for the host's answer and guides every
// experiment by int3 hops, with the outcome classes the counted guide
// gives over the seeded campaigns of the conformance bar. On a host that
// refuses the breakpoint itself both sides hop, and the test holds the
// asking and the counters only.
func TestProcRefusedCountingBreakpointHops(t *testing.T) {
	bin := victimBin(t, "matmul")
	counted := seededRuns(t, conformanceSeeds, 120, bin, procBoard)

	asked := 0
	open := perfEventOpen
	perfEventOpen = func(int, uint64, uint64) (int, error) {
		asked++
		return -1, syscall.EACCES
	}
	t.Cleanup(func() { perfEventOpen = open })
	before := readCounters()
	hopped := seededRuns(t, conformanceSeeds, 120, bin, procBoard)
	d := readCounters().since(before)
	conform(t, conformanceSeeds, "counted", counted, "refused", hopped)
	// One worker board guides each campaign; the reference run is not
	// guided.
	if asked != len(conformanceSeeds) {
		t.Fatalf("the kernel was asked %d times for a counting breakpoint; want once a board, %d", asked, len(conformanceSeeds))
	}
	if total := uint64(len(conformanceSeeds) * 120); d.int3 != total || d.counted != 0 || d.mismatch != 0 || d.stops < total {
		t.Fatalf("guides by int3 %d, counted %d, %d mismatches, %d stops; want %d, 0, 0, at least one a guide",
			d.int3, d.counted, d.mismatch, d.stops, total)
	}
}
