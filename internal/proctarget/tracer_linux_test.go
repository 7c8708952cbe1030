//go:build linux && amd64

package proctarget

import (
	"syscall"
	"testing"
)

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
	if err := tr.SetBreakpoint(vi.workload); err != nil {
		t.Fatal(err)
	}
	if hit, ei, err := tr.ContToBreakpoint(); err != nil || !hit {
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
