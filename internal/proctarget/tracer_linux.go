//go:build linux && amd64

package proctarget

import (
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"goofi/internal/core"
)

// The tracer holds the ptrace primitives one traced child is driven
// with: start it, continue it to the k-th execution of an address counted
// by a hardware breakpoint, plant an int3 and continue to it (byte
// restored, rip rewound on arrival), single-step, read and flip registers
// and memory, continue to termination, reap. The Target composes them
// into the injection state machine (proctarget.go).
//
// A child comes into being one of two ways. Exec (startTraced): the
// victim is started under PTRACE_TRACEME and stops before its first
// instruction. Prefix recordings, Probe and zygotes are exec'd. Fork
// (zygote.fork): a zygote is a victim exec'd once per board and run to
// main.workload, where it stays stopped; an experiment's child is made by
// setting the zygote's registers for clone(CLONE_PARENT|SIGCHLD), stepping
// it over a syscall instruction of its own text, taking the child's pid
// from the fork event and putting the zygote's registers back. The child
// is born traced, stopped, and is given the zygote's registers: it stands
// at main.workload without having run the Go runtime's start-up.
// CLONE_PARENT makes goofi the child's parent as well as its tracer, so
// one wait4 reaps it, and it outlives its zygote. A board forks the next
// experiment's child (its spare) while the current one runs: Resume
// continues the child and, once the child has run for spinWait without
// stopping, forks the spare before it blocks on the child's end.
//
// Linux delivers ptrace stop events only to the tracing thread, and a
// forked child's tracer is its zygote's. So every ptrace request for a
// Target's zygote and children comes from one OS thread the Target owns
// (thread, below); Probe and the recorder lock their caller's thread for
// the one child they trace. Only kill/killProcess are thread-agnostic.
// Every victim process runs in victimEnv: GOMAXPROCS=1 and async
// preemption off, so its main goroutine stays on the traced thread and
// SIGURG noise does not perturb the step budget, and dontfreezetheworld,
// so a fatal panic does not sleep ≥2 ms preempting goroutines a forked
// child has no thread for. The one 1 ms sleep that setting leaves, a
// single-threaded forked child skips: Resume plants an int3 at
// runtime.usleep when a fatal signal arrives and returns the child from
// the call freezetheworld makes. A victim that blocks in a system call before
// or in its workload must also lock the goroutine to that thread in an
// init. A forked child has that thread alone: a locked goroutine that
// parks there (a sleep, a channel, a collection) hands its P to a thread
// the child does not have and hangs, where an exec'd child completes. A
// victim whose fault-free forked run fails so is exec'd instead
// (Target.forkFailed).
//
// A child's stdout and stderr go to an O_APPEND memory file, never a
// pipe: a child never blocks on a reader, and once it is reaped all it
// wrote is in the file. RLIMIT_FSIZE caps the file just past maxStdout,
// so a flood ends in EFBIG rather than in host memory. A zygote's children
// share its file, each through a descriptor of its own, so a zygote
// dropped while a child runs leaves that child's capture whole.

// ptraceOptExitKill is PTRACE_O_EXITKILL (missing from the stdlib
// syscall package): the kernel SIGKILLs the tracee when the tracer
// thread exits, so an abandoned experiment can never leak its child.
const ptraceOptExitKill = 0x00100000

const (
	sysMemfdCreate     = 319 // memfd_create on amd64
	sysProcessVMWritev = 311 // process_vm_writev on amd64
	mfdCloexec         = 1
	rlimitFsize        = 1 // RLIMIT_FSIZE
)

// The Go runtime's view of the main goroutine at main.workload: r14 holds
// its g. Once the goroutine has run 10 ms without a reschedule — which a
// zygote, stopped for the life of its board, soon has — the runtime's
// sysmon asks it to yield: it sets g.stackguard0 (16(R14), read by every
// function prologue) to stackPreempt and g.preempt. A fork writes the
// first gHeadLen bytes of g back as they were at main.workload. The window
// reaches past g.preempt and its neighbours (offset 185 in Go 1.24), and
// nothing but sysmon writes there while the zygote stands still: its only
// P is held by the stopped goroutine.
const (
	gStackguard0 = 16
	gHeadLen     = 192
	stackPreempt = 0xfffffffffffffade
)

// zygoteMaxAge bounds how long one zygote serves: two minutes after the
// last garbage collection the zygote's sysmon queues a forced one, which
// every child forked afterwards would inherit and run.
const zygoteMaxAge = time.Minute

// spinWait is how long wait polls for the child's next stop before it
// blocks. A stop on the way to the injection point — a breakpoint hit, a
// single-step, a fork event — comes microseconds after the request, and
// a tracer that slept through that would wait for the scheduler to wake
// it at every stop. A run to the end takes longer and is waited for
// blocked, after the same short poll.
const spinWait = 50 * time.Microsecond

func lockThread()   { runtime.LockOSThread() }
func unlockThread() { runtime.UnlockOSThread() }

// killProcess is the watchdog's lever: thread-agnostic, unlike every
// ptrace request.
func killProcess(pid int) { syscall.Kill(pid, syscall.SIGKILL) }

type tracer struct {
	pid int

	bpAddr   uint64
	origWord []byte // byte under the planted 0xCC
	bpSet    bool
	// freeze, if set, is where this forked child's runtime sleeps on its
	// way to a crash's traceback: Resume skips that sleep.
	freeze freezeSyms

	out       *output // closed at Shutdown
	reaped    bool
	lastState *exitInfo
	// idle, if set, runs once when wait has polled in vain and would
	// block: the tracer's thread is free until the child stops.
	idle func()
}

// output is the memory file a child's stdout and stderr are written to.
type output struct {
	f *os.File
	// prefix is what a zygote wrote before main.workload: every child
	// forked from it would have written the same, so its output begins so.
	prefix []byte
}

func newOutput() (*output, error) {
	name, _ := syscall.BytePtrFromString("goofi-victim-stdout")
	fd, _, errno := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(name)), mfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("proctarget: memfd_create: %w", errno)
	}
	if _, _, errno := syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_SETFL, syscall.O_APPEND); errno != 0 {
		syscall.Close(int(fd))
		return nil, fmt.Errorf("proctarget: O_APPEND on the output file: %w", errno)
	}
	return &output{f: os.NewFile(fd, "goofi-victim-stdout")}, nil
}

// take returns the prefix and what was written since the last reset,
// capped at maxStdout, and empties the file.
func (o *output) take() []byte {
	st, err := o.f.Stat()
	if err != nil {
		return append([]byte(nil), o.prefix...)
	}
	n := min(st.Size(), maxStdout+1)
	buf := make([]byte, len(o.prefix)+int(n))
	copy(buf, o.prefix)
	got, _ := o.f.ReadAt(buf[len(o.prefix):], 0)
	buf = buf[:len(o.prefix)+got]
	o.reset()
	if len(buf) > maxStdout {
		buf = buf[:maxStdout]
	}
	return buf
}

func (o *output) reset() { o.f.Truncate(0) }

// dup is another descriptor of the same file, for a forked child.
func (o *output) dup() (*output, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_FCNTL, o.f.Fd(), syscall.F_DUPFD_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("proctarget: dup of the output file: %w", errno)
	}
	return &output{f: os.NewFile(fd, o.f.Name()), prefix: o.prefix}, nil
}

// startTraced execs the victim stopped at its first instruction, its
// output going to a memory file of its own.
func startTraced(victim string) (*tracer, error) {
	out, err := newOutput()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(victim)
	// An *os.File stdout is passed straight to the child — no copy
	// goroutine inside exec that would outlive a killed experiment.
	cmd.Stdout = out.f
	cmd.Stderr = out.f
	cmd.Env = victimEnv()
	cmd.SysProcAttr = &syscall.SysProcAttr{Ptrace: true}
	if err := cmd.Start(); err != nil {
		out.f.Close()
		return nil, &procError{class: core.Persistent, err: fmt.Errorf("proctarget: start victim: %w", err)}
	}
	mExecs.Inc()
	t := &tracer{pid: cmd.Process.Pid, out: out}
	// The tracer waits for and reaps the child itself.
	cmd.Process.Release()

	// The child raised PTRACE_TRACEME and stopped on its exec SIGTRAP.
	var ws syscall.WaitStatus
	if _, err := syscall.Wait4(t.pid, &ws, 0, nil); err != nil {
		t.Shutdown()
		return nil, fmt.Errorf("proctarget: wait for exec stop: %w", err)
	}
	if !ws.Stopped() {
		t.reaped = true
		t.Shutdown()
		return nil, fmt.Errorf("proctarget: victim not stopped after exec (status %#x)", uint32(ws))
	}
	if err := syscall.PtraceSetOptions(t.pid, ptraceOptExitKill); err != nil {
		t.Shutdown()
		return nil, fmt.Errorf("proctarget: PTRACE_SETOPTIONS: %w", err)
	}
	// One byte past the cap, so that a capture that reached it shows.
	lim := syscall.Rlimit{Cur: maxStdout + 1, Max: maxStdout + 1}
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_PRLIMIT64, uintptr(t.pid), rlimitFsize,
		uintptr(unsafe.Pointer(&lim)), 0, 0, 0); errno != 0 {
		t.Shutdown()
		return nil, fmt.Errorf("proctarget: RLIMIT_FSIZE: %w", errno)
	}
	return t, nil
}

func (t *tracer) PID() int { return t.pid }

// toWorkload plants the workload breakpoint and continues to it. hit is
// false when the child terminated first.
func (t *tracer) toWorkload(vi *victimInfo) (hit bool, ei *exitInfo, err error) {
	if err := t.SetBreakpoint(vi.workload); err != nil {
		return false, nil, err
	}
	return t.ContToBreakpoint()
}

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

// wait waits for the child's next stop, returning (nil, exitInfo) when it
// terminated instead: polling for spinWait, then running idle, then
// blocked.
func (t *tracer) wait() (*syscall.WaitStatus, *exitInfo, error) {
	var ws syscall.WaitStatus
	spinUntil := time.Now().Add(spinWait)
	for {
		flags := syscall.WNOHANG
		if time.Now().After(spinUntil) {
			if idle := t.idle; idle != nil {
				t.idle = nil
				idle()
				continue
			}
			flags = 0
		}
		pid, err := syscall.Wait4(t.pid, &ws, flags, nil)
		if err != nil {
			if err == syscall.EINTR {
				continue
			}
			return nil, nil, fmt.Errorf("proctarget: wait: %w", err)
		}
		if pid != 0 {
			break
		}
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

// waitStop resumes with the given request and waits for the next stop.
func (t *tracer) waitStop(resume func(pid, sig int) error, sig int) (*syscall.WaitStatus, *exitInfo, error) {
	if err := resume(t.pid, sig); err != nil {
		return nil, nil, fmt.Errorf("proctarget: resume: %w", err)
	}
	return t.wait()
}

// The counting breakpoint is a perf event of type PERF_TYPE_BREAKPOINT on
// the child's thread: an execution breakpoint at an address, its sample
// period the number of executions to count. The CPU's debug registers
// catch each execution, which costs a trip into the kernel and none to the
// tracer; the k-th overflows the period, and the kernel sends the thread a
// SIGTRAP (sigtrap) with si_code TRAP_PERF, which stops it for its tracer
// before the instruction runs.
const (
	perfTypeBreakpoint = 5 // PERF_TYPE_BREAKPOINT
	hwBreakpointX      = 4 // HW_BREAKPOINT_X
	perfFlagFDCloexec  = 8 // PERF_FLAG_FD_CLOEXEC
	// perf_event_attr's flag bits.
	attrExcludeKernel = 1 << 5
	attrExcludeHV     = 1 << 6
	attrRemoveOnExec  = 1 << 36
	attrSigtrap       = 1 << 37
	trapPerf          = 6 // si_code of a perf event's SIGTRAP
	// eflagsRF is the resume flag. The kernel sets it in the eflags of a
	// thread stopped at an execution breakpoint, so that the instruction
	// does not trap again when it runs.
	eflagsRF = 1 << 16
)

// perfEventAttr is struct perf_event_attr as far as sig_data
// (PERF_ATTR_SIZE_VER7, Linux 5.13, the first with sigtrap).
type perfEventAttr struct {
	typ          uint32
	size         uint32
	config       uint64
	samplePeriod uint64
	sampleType   uint64
	readFormat   uint64
	flags        uint64
	wakeupEvents uint32
	bpType       uint32
	bpAddr       uint64
	bpLen        uint64
	_            [7]uint64 // branch_sample_type … sig_data
}

// perfEventOpen opens a counting breakpoint on thread pid at addr with
// sample period k, counting on any CPU, in no group. It is a variable so
// that tests can stand in for a kernel that refuses the event.
var perfEventOpen = func(pid int, addr, k uint64) (fd int, err error) {
	attr := perfEventAttr{
		typ:          perfTypeBreakpoint,
		samplePeriod: k,
		flags:        attrExcludeKernel | attrExcludeHV | attrRemoveOnExec | attrSigtrap,
		bpType:       hwBreakpointX,
		bpAddr:       addr,
		bpLen:        8, // x86 takes an execution breakpoint only of sizeof(long)
	}
	attr.size = uint32(unsafe.Sizeof(attr))
	r, _, errno := syscall.Syscall6(syscall.SYS_PERF_EVENT_OPEN, uintptr(unsafe.Pointer(&attr)),
		uintptr(pid), ^uintptr(0), ^uintptr(0), perfFlagFDCloexec, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(r), nil
}

// refusal reports whether the kernel's answer to a counting breakpoint
// says this host gives none: not permitted (perf_event_paranoid above 2,
// a seccomp filter), no breakpoint PMU or no free debug register, no
// perf_event_open, or a kernel older than sigtrap (EINVAL for a flag it
// does not know).
func refusal(err error) bool {
	switch err {
	case syscall.EACCES, syscall.EPERM, syscall.ENOENT, syscall.ENODEV, syscall.ENOSPC,
		syscall.ENOSYS, syscall.EINVAL:
		return true
	}
	return false
}

// ContToCount continues the child to its k-th execution of addr with one
// ptrace stop, at the last, before the instruction runs; a hardware
// breakpoint counts the ones before. The instruction the child stands on
// when it is continued counts if it is at addr. The child is left with its
// resume flag clear, as a child stopped any other way is. hit is false
// when the child terminated first. A kernel that refuses the event gets
// errEventRefused back, and the child has not moved.
func (t *tracer) ContToCount(addr, k uint64) (hit bool, ei *exitInfo, err error) {
	fd, err := perfEventOpen(t.pid, addr, k)
	if err != nil {
		if refusal(err) {
			return false, nil, fmt.Errorf("%w: %w", errEventRefused, err)
		}
		return false, nil, fmt.Errorf("proctarget: counting breakpoint at %#x: %w", addr, err)
	}
	// Closed before the child runs again, so that no later execution of
	// addr raises another SIGTRAP.
	defer syscall.Close(fd)
	sig := 0
	for {
		ws, ei, err := t.waitStop(syscall.PtraceCont, sig)
		if err != nil || ei != nil {
			return false, ei, err
		}
		if ws.StopSignal() != syscall.SIGTRAP {
			// Forward every other signal to the child unchanged.
			sig = int(ws.StopSignal())
			continue
		}
		// No SIGTRAP is delivered: the Go runtime would die of it.
		sig = 0
		var info [128]byte // siginfo_t, si_code at offset 8
		if _, _, errno := syscall.Syscall6(syscall.SYS_PTRACE, syscall.PTRACE_GETSIGINFO,
			uintptr(t.pid), 0, uintptr(unsafe.Pointer(&info[0])), 0, 0); errno != 0 {
			return false, nil, fmt.Errorf("proctarget: siginfo at counting breakpoint: %w", errno)
		}
		var regs syscall.PtraceRegs
		if err := syscall.PtraceGetRegs(t.pid, &regs); err != nil {
			return false, nil, fmt.Errorf("proctarget: getregs at counting breakpoint: %w", err)
		}
		if int32(binary.LittleEndian.Uint32(info[8:])) != trapPerf || regs.Rip != addr {
			continue // a trap that is not ours
		}
		regs.Eflags &^= eflagsRF
		if err := syscall.PtraceSetRegs(t.pid, &regs); err != nil {
			return false, nil, fmt.Errorf("proctarget: clear the resume flag: %w", err)
		}
		return true, nil, nil
	}
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
	if err := syscall.PtraceGetRegs(t.pid, &regs); err != nil {
		return regFile{}, fmt.Errorf("proctarget: getregs: %w", err)
	}
	return regFileOf(&regs), nil
}

// regFileOf lays a register set out in chain-slot order.
func regFileOf(regs *syscall.PtraceRegs) (rf regFile) {
	for slot := range rf {
		reg, _ := regSlot(regs, slot) // every slot of a regFile is a chain slot
		rf[slot] = *reg
	}
	return rf
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

// writeMemory writes b into the stopped child's memory at addr with one
// system call (process_vm_writev), where PTRACE_POKEDATA takes one a word.
func writeMemory(pid int, addr uint64, b []byte) error {
	local := syscall.Iovec{Base: &b[0], Len: uint64(len(b))}
	remote := [2]uint64{addr, uint64(len(b))} // an iovec of the child's
	n, _, errno := syscall.Syscall6(sysProcessVMWritev, uintptr(pid),
		uintptr(unsafe.Pointer(&local)), 1, uintptr(unsafe.Pointer(&remote)), 1, 0)
	if errno != 0 {
		return fmt.Errorf("proctarget: write %d bytes at %#x: %w", len(b), addr, errno)
	}
	if int(n) != len(b) {
		return fmt.Errorf("proctarget: wrote %d of %d bytes at %#x", n, len(b), addr)
	}
	return nil
}

// Resume continues the child to termination, forwarding signals, and
// returns how it ended. meanwhile, if not nil, runs at most once, the
// first time the child runs on for longer than spinWait: a child that
// stops at once on a fatal signal has it forwarded first.
func (t *tracer) Resume(meanwhile func()) (*exitInfo, error) {
	if t.reaped {
		return t.lastState, nil
	}
	t.idle = meanwhile
	defer func() { t.idle = nil }()
	sig := 0
	for {
		ws, ei, err := t.waitStop(syscall.PtraceCont, sig)
		if err != nil {
			return nil, err
		}
		if ei != nil {
			return ei, nil
		}
		switch s := ws.StopSignal(); s {
		case syscall.SIGTRAP:
			sig = 0
			if err := t.skipFreezeSleep(); err != nil {
				return nil, err
			}
		case syscall.SIGSEGV, syscall.SIGBUS, syscall.SIGILL, syscall.SIGFPE:
			// Deliver the signal. It either kills the child outright or
			// is converted by the Go runtime into a panic: recovered, or
			// a crash whose fatal path begins with the freeze sleep.
			t.armFreezeSkip()
			sig = int(s)
		default:
			sig = int(s)
		}
	}
}

// The crash's freeze sleep. The Go runtime's fatal path (a panic nobody
// recovers, a throw) begins with freezetheworld, which under
// dontfreezetheworld sleeps 1 ms so that the process's other threads can
// settle before the traceback. A forked child runs on one thread, so it
// has nothing to wait for. At a fatal signal's delivery stop, such a child
// gets a one-shot int3 at runtime.usleep. If the call it catches comes
// from freezetheworld, the child returns from usleep without running it;
// any other caller sleeps as before. A child with a second thread is left
// alone: an int3 that an untraced thread executes kills the process.

// armFreezeSkip plants the int3 at usleep in a single-threaded forked
// child, once.
func (t *tracer) armFreezeSkip() {
	if t.freeze.usleep == 0 || t.bpSet || !singleThreaded(t.pid) {
		return
	}
	// A failed plant leaves no int3 behind (bpSet stays false), and the
	// child keeps its sleep.
	_ = t.SetBreakpoint(t.freeze.usleep)
}

// skipFreezeSleep handles a SIGTRAP stop on the int3 armFreezeSkip
// planted: the byte goes back, and the child either returns to
// freezetheworld as if usleep had run — rip taken from [rsp], rsp
// popped, which is all usleep's ret does — or, called from anywhere
// else, is rewound onto usleep. Any other trap is left alone.
func (t *tracer) skipFreezeSleep() error {
	if t.freeze.usleep == 0 || !t.bpSet {
		return nil
	}
	var regs syscall.PtraceRegs
	if err := syscall.PtraceGetRegs(t.pid, &regs); err != nil {
		return fmt.Errorf("proctarget: getregs at usleep: %w", err)
	}
	if regs.Rip != t.bpAddr+1 {
		return nil
	}
	if _, err := syscall.PtracePokeData(t.pid, uintptr(t.bpAddr), t.origWord); err != nil {
		return fmt.Errorf("proctarget: restore the byte at usleep: %w", err)
	}
	t.bpSet = false
	var ret [8]byte
	if _, err := syscall.PtracePeekData(t.pid, uintptr(regs.Rsp), ret[:]); err != nil {
		return fmt.Errorf("proctarget: usleep's return address: %w", err)
	}
	if r := binary.LittleEndian.Uint64(ret[:]); t.freeze.from <= r && r < t.freeze.to {
		regs.Rip, regs.Rsp = r, regs.Rsp+8
		mFreezeSkips.Inc()
	} else {
		regs.Rip = t.bpAddr
	}
	if err := syscall.PtraceSetRegs(t.pid, &regs); err != nil {
		return fmt.Errorf("proctarget: leave usleep: %w", err)
	}
	return nil
}

// singleThreaded reports whether process pid runs one thread.
func singleThreaded(pid int) bool {
	d, err := os.Open(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return false
	}
	defer d.Close()
	names, _ := d.Readdirnames(2)
	return len(names) == 1
}

// Stdout returns what the child wrote (capped at maxStdout) and empties
// its output file. Call only once the child is reaped: then nothing it
// wrote can still be on its way.
func (t *tracer) Stdout() []byte { return t.out.take() }

// kill force-kills and reaps the child (idempotent): not even a zombie
// is left.
func (t *tracer) kill() {
	if t.reaped {
		return
	}
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

// Shutdown kills and reaps the child and closes its output descriptor,
// guaranteeing no process or descriptor outlives the experiment.
func (t *tracer) Shutdown() {
	t.kill()
	if t.out != nil {
		t.out.f.Close()
		t.out = nil
	}
}

// zygote is a victim exec'd once and stopped at main.workload, which
// every child of its board is forked from.
type zygote struct {
	vi    *victimInfo
	tr    *tracer
	regs  syscall.PtraceRegs // at main.workload
	start regFile            // regs, in chain-slot order: where every child starts
	// gHead is the start of the main goroutine's g as it reached
	// main.workload, written back into every child; nil when sysmon had
	// already asked for preemption by then.
	gHead []byte
	born  time.Time
}

// newZygote execs the victim and runs it to main.workload, under the
// experiment's watchdog. A victim that ends before it gets there makes no
// zygote: the ended process is returned as the experiment's child.
func newZygote(vi *victimInfo, w *watchdog) (z *zygote, ended *tracer, err error) {
	tr, err := startTraced(vi.path)
	if err != nil {
		return nil, nil, err
	}
	w.watch(tr.pid)
	hit, _, err := tr.toWorkload(vi)
	w.watch(0)
	if err != nil {
		tr.Shutdown()
		return nil, nil, err
	}
	if !hit {
		return nil, tr, nil
	}
	z = &zygote{vi: vi, tr: tr, born: time.Now()}
	fail := func(err error) (*zygote, *tracer, error) {
		tr.Shutdown()
		return nil, nil, fmt.Errorf("proctarget: zygote of %q: %w", vi.path, err)
	}
	if err := syscall.PtraceGetRegs(tr.pid, &z.regs); err != nil {
		return fail(err)
	}
	z.start = regFileOf(&z.regs)
	// Only the zygote reports its forks: a child is given plain options
	// before it runs, so whatever a victim forks is never traced.
	if err := syscall.PtraceSetOptions(tr.pid, ptraceOptExitKill|syscall.PTRACE_O_TRACEFORK); err != nil {
		return fail(err)
	}
	z.gHead = make([]byte, gHeadLen)
	if _, err := syscall.PtracePeekData(tr.pid, uintptr(z.regs.R14), z.gHead); err != nil {
		return fail(err)
	}
	if binary.LittleEndian.Uint64(z.gHead[gStackguard0:]) == stackPreempt {
		z.gHead = nil
	}
	tr.out.prefix = tr.out.take()
	return z, nil, nil
}

// stale reports whether the zygote cannot serve vi any more.
func (z *zygote) stale(vi *victimInfo) bool {
	return z.vi != vi || time.Since(z.born) > zygoteMaxAge
}

// step single-steps the zygote, which must stop with SIGTRAP.
func (z *zygote) step() (*syscall.WaitStatus, error) {
	ws, ei, err := z.tr.waitStop(singleStepSig, 0)
	if err != nil {
		return nil, err
	}
	if ei != nil {
		return nil, fmt.Errorf("zygote ended (%s)", ei.mechanism())
	}
	if ws.StopSignal() != syscall.SIGTRAP {
		return nil, fmt.Errorf("zygote stopped by %v", ws.StopSignal())
	}
	return ws, nil
}

// fork makes a child of the zygote standing at main.workload, stopped. It
// leaves the output file as it is: an earlier child may still be writing
// to it. An error leaves the zygote unusable.
func (z *zygote) fork() (*tracer, error) {
	regs := z.regs
	regs.Rip = z.vi.syscallInsn
	regs.Rax = syscall.SYS_CLONE
	regs.Rdi = syscall.CLONE_PARENT | uint64(syscall.SIGCHLD)
	regs.Rsi, regs.Rdx, regs.R10, regs.R8 = 0, 0, 0, 0 // same stack, no tids, no TLS
	if err := syscall.PtraceSetRegs(z.tr.pid, &regs); err != nil {
		return nil, err
	}
	ws, err := z.step()
	if err != nil {
		return nil, err
	}
	if ws.TrapCause() != syscall.PTRACE_EVENT_FORK {
		return nil, fmt.Errorf("zygote stepped over clone without a fork event (status %#x)", uint32(*ws))
	}
	pid, err := syscall.PtraceGetEventMsg(z.tr.pid)
	if err != nil {
		return nil, err
	}
	child := &tracer{pid: int(pid)}
	fail := func(err error) (*tracer, error) {
		child.Shutdown()
		return nil, err
	}
	// Out of the syscall, then back to main.workload.
	if _, err := z.step(); err != nil {
		return fail(err)
	}
	if err := syscall.PtraceSetRegs(z.tr.pid, &z.regs); err != nil {
		return fail(err)
	}
	// The child was born traced with the zygote's options and a SIGSTOP
	// pending; it stops on that before running a single instruction.
	ws, ei, err := child.wait()
	if err != nil || ei != nil {
		return fail(fmt.Errorf("forked child did not stop at birth: %v %v", ei, err))
	}
	if ws.StopSignal() != syscall.SIGSTOP {
		return fail(fmt.Errorf("forked child stopped at birth by %v", ws.StopSignal()))
	}
	if err := syscall.PtraceSetOptions(child.pid, ptraceOptExitKill); err != nil {
		return fail(err)
	}
	if err := syscall.PtraceSetRegs(child.pid, &z.regs); err != nil {
		return fail(err)
	}
	if child.out, err = z.tr.out.dup(); err != nil {
		return fail(err)
	}
	if z.gHead != nil {
		// The child has no sysmon; undo the preemption request the
		// zygote's sysmon made while it stood still. Left in place, it
		// would detour the child's first prologue through the scheduler,
		// and a main goroutine locked to its thread would wait there for
		// a thread that was not forked.
		if err := writeMemory(child.pid, z.regs.R14, z.gHead); err != nil {
			return fail(err)
		}
	}
	mForks.Inc()
	return child, nil
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
