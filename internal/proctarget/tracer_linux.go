//go:build linux && amd64

package proctarget

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"

	"goofi/internal/core"
)

// The tracer holds the ptrace primitives one traced child is driven
// with: fork (stopped), plant an int3 and continue to it (byte restored,
// rip rewound on arrival), single-step, read and flip registers and
// memory, continue to termination, reap. The Target composes them into
// the injection state machine (proctarget.go).
//
// Linux delivers ptrace stop events only to the tracing thread, so the
// Target locks its goroutine to one OS thread (lockThread) for the
// whole session; every method here except Kill/killProcess must run on
// that thread. The child runs with GOMAXPROCS=1 and async preemption
// off so its main goroutine stays on the traced thread and SIGURG
// noise does not perturb the step budget.

// ptraceOptExitKill is PTRACE_O_EXITKILL (missing from the stdlib
// syscall package): the kernel SIGKILLs the tracee when the tracer
// thread exits, so an abandoned experiment can never leak its child.
const ptraceOptExitKill = 0x00100000

func lockThread()   { runtime.LockOSThread() }
func unlockThread() { runtime.UnlockOSThread() }

// killProcess is the watchdog's lever: thread-agnostic, unlike every
// ptrace request.
func killProcess(pid int) { syscall.Kill(pid, syscall.SIGKILL) }

type tracer struct {
	cmd *exec.Cmd
	pid int

	bpAddr   uint64
	origWord []byte // byte under the planted 0xCC
	bpSet    bool

	stdoutR   *os.File
	outDone   chan struct{}
	outBuf    []byte
	reaped    bool
	lastState *exitInfo
}

// startTraced forks the victim stopped at its first instruction.
func startTraced(victim string) (*tracer, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, fmt.Errorf("proctarget: stdout pipe: %w", err)
	}
	cmd := exec.Command(victim)
	// An *os.File stdout is passed straight to the child — no copy
	// goroutine inside exec that would outlive a killed experiment.
	cmd.Stdout = w
	cmd.Stderr = w
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1", "GODEBUG=asyncpreemptoff=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Ptrace: true}
	if err := cmd.Start(); err != nil {
		r.Close()
		w.Close()
		return nil, &procError{class: core.Persistent, err: fmt.Errorf("proctarget: start victim: %w", err)}
	}
	w.Close() // parent's copy; the child holds the write end now
	t := &tracer{cmd: cmd, pid: cmd.Process.Pid, stdoutR: r, outDone: make(chan struct{})}
	go func() {
		defer close(t.outDone)
		buf, _ := io.ReadAll(io.LimitReader(r, maxStdout+1))
		t.outBuf = buf
	}()

	// The child raised PTRACE_TRACEME and stopped on its exec SIGTRAP.
	var ws syscall.WaitStatus
	if _, err := syscall.Wait4(t.pid, &ws, 0, nil); err != nil {
		t.Shutdown()
		return nil, fmt.Errorf("proctarget: wait for exec stop: %w", err)
	}
	if !ws.Stopped() {
		t.Shutdown()
		return nil, fmt.Errorf("proctarget: victim not stopped after exec (status %#x)", uint32(ws))
	}
	if err := syscall.PtraceSetOptions(t.pid, ptraceOptExitKill); err != nil {
		t.Shutdown()
		return nil, fmt.Errorf("proctarget: PTRACE_SETOPTIONS: %w", err)
	}
	return t, nil
}

func (t *tracer) PID() int { return t.pid }

// SetBreakpoint plants an int3 at addr.
func (t *tracer) SetBreakpoint(addr uint64) error {
	orig := make([]byte, 1)
	if _, err := syscall.PtracePeekData(t.pid, uintptr(addr), orig); err != nil {
		return fmt.Errorf("proctarget: peek at breakpoint %#x: %w", addr, err)
	}
	if _, err := syscall.PtracePokeData(t.pid, uintptr(addr), []byte{0xCC}); err != nil {
		return fmt.Errorf("proctarget: plant breakpoint %#x: %w", addr, err)
	}
	t.bpAddr = addr
	t.origWord = orig
	t.bpSet = true
	return nil
}

// waitStop resumes with the given request and waits for the next stop,
// returning (nil, exitInfo) when the child terminated instead.
func (t *tracer) waitStop(resume func(pid, sig int) error, sig int) (*syscall.WaitStatus, *exitInfo, error) {
	if err := resume(t.pid, sig); err != nil {
		return nil, nil, fmt.Errorf("proctarget: resume: %w", err)
	}
	var ws syscall.WaitStatus
	for {
		if _, err := syscall.Wait4(t.pid, &ws, 0, nil); err != nil {
			if err == syscall.EINTR {
				continue
			}
			return nil, nil, fmt.Errorf("proctarget: wait: %w", err)
		}
		break
	}
	if ws.Exited() {
		t.reaped = true
		t.lastState = &exitInfo{exited: true, code: ws.ExitStatus()}
		return nil, t.lastState, nil
	}
	if ws.Signaled() {
		t.reaped = true
		t.lastState = &exitInfo{signaled: true, signal: sigName(ws.Signal())}
		return nil, t.lastState, nil
	}
	return &ws, nil, nil
}

// ContToBreakpoint continues to the planted int3, restores the original
// byte and rewinds rip. hit is false when the child terminated without
// reaching the breakpoint.
func (t *tracer) ContToBreakpoint() (hit bool, ei *exitInfo, err error) {
	if !t.bpSet {
		return false, nil, fmt.Errorf("proctarget: ContToBreakpoint without a breakpoint")
	}
	sig := 0
	for {
		ws, ei, err := t.waitStop(syscall.PtraceCont, sig)
		if err != nil || ei != nil {
			return false, ei, err
		}
		if ws.StopSignal() == syscall.SIGTRAP {
			var regs syscall.PtraceRegs
			if err := syscall.PtraceGetRegs(t.pid, &regs); err != nil {
				return false, nil, fmt.Errorf("proctarget: getregs at breakpoint: %w", err)
			}
			if regs.Rip != t.bpAddr+1 {
				// A trap that is not ours (runtime internals); swallow
				// it and keep going.
				sig = 0
				continue
			}
			if _, err := syscall.PtracePokeData(t.pid, uintptr(t.bpAddr), t.origWord); err != nil {
				return false, nil, fmt.Errorf("proctarget: restore breakpoint byte: %w", err)
			}
			regs.Rip = t.bpAddr
			if err := syscall.PtraceSetRegs(t.pid, &regs); err != nil {
				return false, nil, fmt.Errorf("proctarget: rewind rip: %w", err)
			}
			t.bpSet = false
			return true, nil, nil
		}
		// Forward every other signal to the child unchanged.
		sig = int(ws.StopSignal())
	}
}

// singleStepSig is PTRACE_SINGLESTEP with a signal to deliver; the
// stdlib wrapper takes no signal argument, so forwarded signals go
// through the raw syscall (ptrace data argument = signal number).
func singleStepSig(pid, sig int) error {
	const ptraceSingleStep = 9
	_, _, errno := syscall.Syscall6(syscall.SYS_PTRACE,
		ptraceSingleStep, uintptr(pid), 0, uintptr(sig), 0, 0)
	if errno != 0 {
		return errno
	}
	return nil
}

// Step single-steps budget instructions. It returns early (with the
// exit info) if the child terminates first. Only SIGTRAP stops count: a
// stop on any other signal is a signal-delivery stop at which no
// instruction retired, and the signal is forwarded with the next
// request.
func (t *tracer) Step(budget uint64) (steps uint64, ei *exitInfo, err error) {
	var requests uint64
	defer func() { mSteps.Add(requests) }()
	sig := 0
	for steps < budget {
		requests++
		ws, ei, err := t.waitStop(singleStepSig, sig)
		if err != nil || ei != nil {
			return steps, ei, err
		}
		if ws.StopSignal() == syscall.SIGTRAP {
			steps++
			sig = 0
		} else {
			sig = int(ws.StopSignal())
		}
	}
	return steps, nil, nil
}

// Regs reads the stopped child's register file in chain-slot order.
func (t *tracer) Regs() (regFile, error) {
	var regs syscall.PtraceRegs
	var rf regFile
	if err := syscall.PtraceGetRegs(t.pid, &regs); err != nil {
		return rf, fmt.Errorf("proctarget: getregs: %w", err)
	}
	for slot := range rf {
		reg, _ := regSlot(&regs, slot) // every slot of a regFile is a chain slot
		rf[slot] = *reg
	}
	return rf, nil
}

// regSlot returns a pointer to the register at the fixed chain index
// (gprNames then specialNames order).
func regSlot(regs *syscall.PtraceRegs, slot int) (*uint64, error) {
	switch slot {
	case 0:
		return &regs.Rax, nil
	case 1:
		return &regs.Rbx, nil
	case 2:
		return &regs.Rcx, nil
	case 3:
		return &regs.Rdx, nil
	case 4:
		return &regs.Rsi, nil
	case 5:
		return &regs.Rdi, nil
	case 6:
		return &regs.Rbp, nil
	case 7:
		return &regs.R8, nil
	case 8:
		return &regs.R9, nil
	case 9:
		return &regs.R10, nil
	case 10:
		return &regs.R11, nil
	case 11:
		return &regs.R12, nil
	case 12:
		return &regs.R13, nil
	case 13:
		return &regs.R14, nil
	case 14:
		return &regs.R15, nil
	case 15:
		return &regs.Rip, nil
	case 16:
		return &regs.Rsp, nil
	case 17:
		return &regs.Eflags, nil
	}
	return nil, fmt.Errorf("proctarget: register slot %d outside chain", slot)
}

// FlipRegisterBits xors the given (slot, value-bit) pairs into the
// stopped child's registers in one GETREGS/SETREGS round trip.
func (t *tracer) FlipRegisterBits(slots [][2]int) error {
	var regs syscall.PtraceRegs
	if err := syscall.PtraceGetRegs(t.pid, &regs); err != nil {
		return fmt.Errorf("proctarget: getregs for injection: %w", err)
	}
	for _, sv := range slots {
		reg, err := regSlot(&regs, sv[0])
		if err != nil {
			return err
		}
		*reg ^= uint64(1) << uint(sv[1])
	}
	if err := syscall.PtraceSetRegs(t.pid, &regs); err != nil {
		return fmt.Errorf("proctarget: setregs for injection: %w", err)
	}
	return nil
}

// FlipMemoryBit xors one bit into the child's memory.
func (t *tracer) FlipMemoryBit(addr uint64, mask byte) error {
	b := make([]byte, 1)
	if _, err := syscall.PtracePeekData(t.pid, uintptr(addr), b); err != nil {
		return fmt.Errorf("proctarget: peek %#x: %w", addr, err)
	}
	b[0] ^= mask
	if _, err := syscall.PtracePokeData(t.pid, uintptr(addr), b); err != nil {
		return fmt.Errorf("proctarget: poke %#x: %w", addr, err)
	}
	return nil
}

// Resume continues the child to termination, forwarding signals, and
// returns how it ended.
func (t *tracer) Resume() (*exitInfo, error) {
	if t.reaped {
		return t.lastState, nil
	}
	sig := 0
	for {
		ws, ei, err := t.waitStop(syscall.PtraceCont, sig)
		if err != nil {
			return nil, err
		}
		if ei != nil {
			return ei, nil
		}
		if ws.StopSignal() == syscall.SIGTRAP {
			sig = 0
		} else {
			// Deliver the signal. A fatal one (SIGSEGV from a flipped
			// pointer) either kills the child outright or is converted
			// by the Go runtime into a panic exit — crash either way.
			sig = int(ws.StopSignal())
		}
	}
}

// Stdout returns the captured output; it blocks until the reader
// goroutine drained the pipe, which requires the child to be dead or
// to have closed stdout. Call only after Resume/Shutdown reaped it.
func (t *tracer) Stdout() []byte {
	<-t.outDone
	if len(t.outBuf) > maxStdout {
		return t.outBuf[:maxStdout]
	}
	return t.outBuf
}

// Shutdown force-kills and reaps the child (idempotent) and joins the
// stdout reader, guaranteeing no goroutine or zombie outlives the
// experiment.
func (t *tracer) Shutdown() {
	if !t.reaped {
		syscall.Kill(t.pid, syscall.SIGKILL)
		var ws syscall.WaitStatus
		for {
			_, err := syscall.Wait4(t.pid, &ws, 0, nil)
			if err == syscall.EINTR {
				continue
			}
			break
		}
		t.reaped = true
	}
	t.stdoutR.Close()
	<-t.outDone
}

// sigName names a signal for outcome mechanisms.
func sigName(sig syscall.Signal) string {
	switch sig {
	case syscall.SIGSEGV:
		return "SIGSEGV"
	case syscall.SIGBUS:
		return "SIGBUS"
	case syscall.SIGILL:
		return "SIGILL"
	case syscall.SIGFPE:
		return "SIGFPE"
	case syscall.SIGABRT:
		return "SIGABRT"
	case syscall.SIGKILL:
		return "SIGKILL"
	case syscall.SIGTRAP:
		return "SIGTRAP"
	}
	return fmt.Sprintf("sig%d", int(sig))
}
