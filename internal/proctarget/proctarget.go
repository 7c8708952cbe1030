// Package proctarget implements fault injection into live OS processes,
// in the style of ZOFI: each experiment's victim is a real child process
// — forked, under Linux ptrace, from a copy of the victim its board
// exec'd once and stopped at the workload symbol — that is stopped at a
// seeded injection point (an instruction count drawn from the campaign's
// random window, reached by a hardware breakpoint that counts the hits
// along a recorded fault-free prefix trace — prefix.go), a register or
// memory bit is flipped, execution resumes, and the termination is
// classified into the ZOFI outcome taxonomy — masked, sdc, crash, hang.
//
// proctarget is the first GOOFI target whose outcomes are not
// byte-reproducible: a live process is subject to OS scheduling and
// timing, so only the fault *plan* (seq → fault + trigger) is
// deterministic and replayable. The target declares this by
// implementing core.NondeterministicTarget with Deterministic() ==
// false, which relaxes the campaign's byte-identity guarantee to
// plan-identity plus outcome-class statistics.
//
// The injection fault space is exposed as two pseudo scan chains,
// following the swifi precedent:
//
//   - "registers": the 15 amd64 general-purpose registers (gpr.rax …
//     gpr.r15) plus special.rip, special.rsp and special.eflags, 64
//     bits each. Bit 0 of a location is the register's most
//     significant bit.
//   - "memory": the victim's writable package-level objects (ELF
//     symbols main.*), one location g.<symbol> per object. Within
//     each 64-bit word, bit 0 is the most significant value bit.
package proctarget

import (
	"bytes"
	"debug/elf"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/scanchain"
)

// Kind is the registry name of the live-process target.
const Kind = "proc"

// Chain names of the proc fault space.
const (
	RegisterChainName = "registers"
	MemoryChainName   = "memory"
)

// WorkloadSymbol is the function where the injection breakpoint is
// planted. Victim programs mark their kernel with a //go:noinline
// function of this name.
const WorkloadSymbol = "main.workload"

// maxStdout caps the captured victim output; a fault that turns the
// victim into an output firehose must not exhaust host memory.
const maxStdout = 1 << 20

// gprNames is the fixed register-chain layout: 15 general-purpose
// registers followed by the special registers. The order is load-
// bearing — chain offsets index into it — and must match regSlot in
// the linux tracer.
var gprNames = []string{
	"rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

var specialNames = []string{"rip", "rsp", "eflags"}

// RegisterMap builds the "registers" pseudo scan chain: one 64-bit
// location per register.
func RegisterMap() scanchain.Map {
	m := scanchain.Map{Chain: RegisterChainName}
	add := func(prefix string, names []string) {
		for _, n := range names {
			m.Locations = append(m.Locations, scanchain.Location{
				Name:   prefix + "." + n,
				Offset: m.Length,
				Width:  64,
			})
			m.Length += 64
		}
	}
	add("gpr", gprNames)
	add("special", specialNames)
	return m
}

// regSlotOf maps an absolute register-chain bit offset to (register
// index in gprNames+specialNames order, value bit). Bit 0 of a
// location is the MSB of the 64-bit register, so value bit =
// 63 - bit-within-location.
func regSlotOf(off int) (slot int, valueBit int) {
	return off / 64, 63 - off%64
}

// victimInfo is the parsed ELF metadata of one victim binary — the
// breakpoint address, the extent of the workload function, a syscall
// instruction to fork a zygote with, the runtime's freeze sleep and the
// writable main.* object symbols forming the memory chain — plus what is
// memoised per binary from fault-free runs: the reference stdout and the
// prefix trace.
type victimInfo struct {
	path        string
	workload    uint64
	workloadEnd uint64 // workload + symbol size: [workload, workloadEnd) is plantable
	syscallInsn uint64 // address of the bytes 0f 05 (syscall) in the text
	freeze      freezeSyms
	memMap      scanchain.Map
	symAddrs    map[string]uint64 // location name -> virtual address
	refStdout   []byte            // fault-free stdout, filled lazily
	refOnce     sync.Once
	refErr      error

	traceMu  sync.Mutex
	trace    *prefixTrace // nil until recorded, and while stepOnly
	stepOnly bool         // two recordings disagreed: single-step this victim
	// noFork: a fault-free child forked from a zygote of this victim
	// failed where an exec'd run exited 0 (Target.forkFailed). Every
	// child of it is exec'd from then on.
	noFork atomic.Bool
}

// freezeSyms locate the sleep a fatal panic or throw starts with:
// runtime.freezetheworld calls runtime.usleep(1000) to let the process's
// other threads settle, and a forked child has none (tracer.Resume skips
// the call). Zero when the victim lacks either symbol: its crashes sleep.
type freezeSyms struct {
	usleep uint64 // entry of runtime.usleep (runtime.usleep.abi0 in register-ABI builds)
	// [from, to) is runtime.freezetheworld: a return address in it marks
	// the freeze sleep's call.
	from, to uint64
}

var victimCache = struct {
	sync.Mutex
	m map[string]*victimInfo
}{m: make(map[string]*victimInfo)}

// loadVictim parses (and caches) the victim ELF. Go linux/amd64
// binaries are non-PIE by default, so symbol virtual addresses equal
// runtime addresses; PIE binaries are rejected because the load bias
// is unknown to the tracer.
func loadVictim(path string) (*victimInfo, error) {
	victimCache.Lock()
	if vi, ok := victimCache.m[path]; ok {
		victimCache.Unlock()
		return vi, nil
	}
	victimCache.Unlock()

	f, err := elf.Open(path)
	if err != nil {
		return nil, &procError{class: core.Persistent,
			err: fmt.Errorf("proctarget: open victim %q: %w", path, err)}
	}
	defer f.Close()
	if f.Type == elf.ET_DYN {
		return nil, &procError{class: core.Persistent,
			err: fmt.Errorf("proctarget: victim %q is position-independent; build it without PIE so symbol addresses are load addresses", path)}
	}
	syms, err := f.Symbols()
	if err != nil {
		return nil, &procError{class: core.Persistent,
			err: fmt.Errorf("proctarget: victim %q symbols: %w", path, err)}
	}

	vi := &victimInfo{path: path, symAddrs: make(map[string]uint64)}
	type memSym struct {
		name string
		addr uint64
		size uint64
	}
	var mems []memSym
	var usleepWrapper uint64
	for _, s := range syms {
		if elf.ST_TYPE(s.Info) == elf.STT_FUNC {
			switch s.Name {
			case WorkloadSymbol:
				vi.workload, vi.workloadEnd = s.Value, s.Value+s.Size
			case "runtime.freezetheworld":
				vi.freeze.from, vi.freeze.to = s.Value, s.Value+s.Size
			case "runtime.usleep.abi0":
				// The assembly body, which the runtime's Go code calls
				// directly; runtime.usleep, if present, is a wrapper.
				vi.freeze.usleep = s.Value
			case "runtime.usleep":
				usleepWrapper = s.Value
			}
			continue
		}
		if elf.ST_TYPE(s.Info) != elf.STT_OBJECT || !strings.HasPrefix(s.Name, "main.") {
			continue
		}
		// Only writable, allocated data, and only whole 64-bit words:
		// the chain bit layout is word-based.
		if s.Size < 8 || s.Size%8 != 0 || int(s.Section) >= len(f.Sections) {
			continue
		}
		sect := f.Sections[s.Section]
		if sect.Flags&elf.SHF_WRITE == 0 || sect.Flags&elf.SHF_ALLOC == 0 {
			continue
		}
		mems = append(mems, memSym{name: s.Name, addr: s.Value, size: s.Size})
	}
	if vi.freeze.usleep == 0 {
		vi.freeze.usleep = usleepWrapper
	}
	if vi.freeze.usleep == 0 || vi.freeze.to == 0 {
		vi.freeze = freezeSyms{}
	}
	if vi.workload == 0 {
		return nil, &procError{class: core.Persistent,
			err: fmt.Errorf("proctarget: victim %q has no %s function (mark the kernel //go:noinline)", path, WorkloadSymbol)}
	}
	// Decoding starts wherever rip points, so any 0f 05 in executable
	// memory is a syscall instruction, on an instruction boundary of the
	// program's own or not.
	if text := f.Section(".text"); text != nil {
		if code, err := text.Data(); err == nil {
			if i := bytes.Index(code, []byte{0x0f, 0x05}); i >= 0 {
				vi.syscallInsn = text.Addr + uint64(i)
			}
		}
	}
	if vi.syscallInsn == 0 {
		return nil, &procError{class: core.Persistent,
			err: fmt.Errorf("proctarget: victim %q has no syscall instruction in its text", path)}
	}
	sort.Slice(mems, func(i, j int) bool {
		if mems[i].addr != mems[j].addr {
			return mems[i].addr < mems[j].addr
		}
		return mems[i].name < mems[j].name
	})
	vi.memMap = scanchain.Map{Chain: MemoryChainName}
	for _, ms := range mems {
		name := "g." + ms.name
		vi.memMap.Locations = append(vi.memMap.Locations, scanchain.Location{
			Name:   name,
			Offset: vi.memMap.Length,
			Width:  int(ms.size) * 8,
		})
		vi.symAddrs[name] = ms.addr
		vi.memMap.Length += int(ms.size) * 8
	}

	victimCache.Lock()
	if prev, ok := victimCache.m[path]; ok {
		vi = prev
	} else {
		victimCache.m[path] = vi
	}
	victimCache.Unlock()
	return vi, nil
}

// victimEnv is the environment of every process started from a victim:
// the zygotes and the children they fork, exec'd children, the prefix
// recordings, the reference-output capture and Probe. One P and no
// asynchronous preemption keep the main goroutine on the traced thread;
// dontfreezetheworld spares a fatal panic the runtime's ≥2 ms of sleeps
// while it preempts goroutines, leaving one 1 ms sleep, which a
// single-threaded forked child skips too (tracer.Resume); GOTRACEBACK=single
// keeps a crash's output the default traceback. These replace whatever
// the operator has set: exec.Cmd keeps the last of duplicate variables.
func victimEnv() []string {
	return append(os.Environ(), "GOMAXPROCS=1",
		"GODEBUG=asyncpreemptoff=1,dontfreezetheworld=1", "GOTRACEBACK=single")
}

// referenceStdout returns the victim's fault-free output, captured
// once per binary by running it untraced in victimEnv, as every traced
// run is. masked-vs-sdc classification compares against this capture.
func (vi *victimInfo) referenceStdout(timeout time.Duration) ([]byte, error) {
	vi.refOnce.Do(func() {
		if timeout < time.Second {
			timeout = time.Second
		}
		cmd := exec.Command(vi.path)
		cmd.Env = victimEnv()
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Start(); err != nil {
			vi.refErr = fmt.Errorf("proctarget: reference run: %w", err)
			return
		}
		mExecs.Inc()
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				vi.refErr = fmt.Errorf("proctarget: reference run of %q failed: %w", vi.path, err)
				return
			}
		case <-time.After(timeout):
			cmd.Process.Kill()
			<-done
			vi.refErr = fmt.Errorf("proctarget: reference run of %q exceeded %v", vi.path, timeout)
			return
		}
		b := out.Bytes()
		if len(b) > maxStdout {
			b = b[:maxStdout]
		}
		vi.refStdout = b
	})
	if vi.refErr != nil {
		return nil, &procError{class: core.Persistent, err: vi.refErr}
	}
	return vi.refStdout, nil
}

// procError carries an explicit recovery class through the runner's
// ClassifyError (harness errors of the ptrace machinery are transient
// by default; configuration errors are persistent).
type procError struct {
	class core.ErrorClass
	err   error
}

func (e *procError) Error() string               { return e.err.Error() }
func (e *procError) Unwrap() error               { return e.err }
func (e *procError) ErrorClass() core.ErrorClass { return e.class }

// SystemData builds the configuration-phase record for the proc
// target. The register chain is always present; the memory chain needs
// the victim binary (cfg param "victim") to read its symbol table.
func SystemData(name string, cfg core.TargetConfig) (*campaign.TargetSystemData, error) {
	tsd := &campaign.TargetSystemData{
		Name:         name,
		TestCardName: "ptrace",
		Chains:       []scanchain.Map{RegisterMap()},
		Description:  "live OS process driven via ptrace (ZOFI-style run-time injection)",
	}
	if victim := cfg.Param("victim", ""); victim != "" {
		vi, err := loadVictim(victim)
		if err != nil {
			return nil, err
		}
		if len(vi.memMap.Locations) > 0 {
			tsd.Chains = append(tsd.Chains, vi.memMap)
		}
	}
	return tsd, nil
}

// Target is the live-process TargetSystem. It embeds the Framework
// template and deliberately leaves ReadScanChain/WriteScanChain as the
// template stubs: a live process has no scan chain, and selecting a
// scan-chain algorithm (scifi) against it must yield the precise
// NotImplementedError naming the missing method (paper Fig 3).
//
// A Target is one board. It execs its victim once, runs it to
// main.workload and keeps it stopped there as the board's zygote; every
// experiment's child is forked from it. While an experiment's child runs
// to its end, the board forks a spare child for the next experiment, so
// that fork overlaps the run instead of preceding the next one. The
// zygote and its children are traced from one OS thread the Target owns,
// started by InitTestCard and ended by Close, so the Target may be driven
// from any goroutine (the reference run and the experiments come from
// different ones). Each visit
// to that thread is a hand-over between two parked threads, so an
// experiment makes two: WaitForBreakpoint makes the child and takes it to
// the injection point, WaitForTermination flips the bits InjectFault
// planned and runs the child to its end. The reference run, which does not
// stop on the way, makes one.
type Target struct {
	core.Framework
	// exec: every child is exec'd and run to main.workload, the way the
	// prefix recordings are, never forked (the other half of the
	// fork-vs-exec conformance test).
	exec bool
	// int3: the child is guided to the injection point by int3 hops, not
	// counted there (prefix.go's guide): the kernel refused this Target a
	// counting breakpoint, or a test asked for the hops.
	int3 bool
	// freezeSleep: a forked child's crash sleeps in freezetheworld, as an
	// exec'd child's does (the other half of the freeze-sleep bytes test).
	freezeSleep bool

	mu sync.Mutex
	th *thread // nil until InitTestCard, and after Close

	// The board's zygote, owned by th; nil until the first experiment
	// and after it died.
	z *zygote
	// spare is a child of z forked while the last experiment's child ran,
	// stopped at main.workload; the next experiment takes it instead of
	// forking. It goes wherever z goes.
	spare *tracer
	// Per-experiment state, reset by InitTestCard.
	vi               *victimInfo
	trace            *prefixTrace  // nil: reach the injection point by stepping
	deadline         time.Duration // set by RunWorkload: the child is due
	tr               *tracer
	forked           bool    // tr is a child of the zygote, not an exec
	start            regFile // tr's registers at main.workload
	watchdog         *watchdog
	atInjectionPoint bool
	steps            uint64
	flip             func() error  // the fault InjectFault planned, flipped as the child resumes
	exit             *exitInfo     // termination observed before WaitForTermination
	ran              time.Duration // from resume to reap
	lastPID          int
}

// New builds a proc target. The victim binary is taken per experiment
// from the campaign's Workload.Source, so one target serves any victim.
// A target dropped without Close is closed when it is collected.
func New(core.TargetConfig) (*Target, error) {
	t := &Target{Framework: core.Framework{TargetName: "proc"}}
	runtime.SetFinalizer(t, (*Target).Close)
	return t, nil
}

// Deterministic declares the relaxation: proc outcomes are statistical,
// only the fault plan is reproducible.
func (t *Target) Deterministic() bool { return false }

// LastPID reports the pid of the most recently traced child, for leak
// tests ( /proc/<pid> liveness ).
func (t *Target) LastPID() int { return t.lastPID }

// Close kills and reaps the board's zygote and any child left, and ends
// the thread that traced them. The target stays usable: the next
// experiment starts a new thread and execs a new zygote.
func (t *Target) Close() error {
	t.mu.Lock()
	th := t.th
	t.th = nil
	t.mu.Unlock()
	if th == nil {
		return nil
	}
	th.do(func() {
		t.cleanup()
		t.dropZygote()
	})
	th.stop()
	return nil
}

// on runs f on the target's thread.
func (t *Target) on(f func() error) error {
	t.mu.Lock()
	th := t.th
	t.mu.Unlock()
	var err error
	if th == nil || !th.do(func() { err = f() }) {
		return fmt.Errorf("proctarget: target closed")
	}
	return err
}

// exitInfo is how the traced child terminated.
type exitInfo struct {
	exited   bool
	code     int
	signaled bool
	signal   string
}

// watchdogKill is how a child the watchdog killed terminated.
func watchdogKill() *exitInfo { return &exitInfo{signaled: true, signal: "SIGKILL"} }

func (e *exitInfo) mechanism() string {
	if e.signaled {
		return "signal:" + e.signal
	}
	return fmt.Sprintf("exit:%d", e.code)
}

// timeoutOf converts the campaign's TimeoutCycles to the proc wall
// clock: a live process has no emulated cycle counter, so TimeoutCycles
// is interpreted as microseconds (the CLI default of 300000 is 300ms).
func timeoutOf(ex *core.Experiment) time.Duration {
	tc := ex.Campaign.Termination.TimeoutCycles
	if tc == 0 {
		return 300 * time.Millisecond
	}
	return time.Duration(tc) * time.Microsecond
}

// InitTestCard starts the target's thread if it has none and resets
// per-experiment state, reaping any child a failed previous experiment
// left behind. The zygote stays.
func (t *Target) InitTestCard(ex *core.Experiment) error {
	t.mu.Lock()
	if t.th == nil {
		t.th = startThread()
	}
	t.mu.Unlock()
	if t.tr != nil || t.watchdog != nil {
		if err := t.on(func() error { t.cleanup(); return nil }); err != nil {
			return err
		}
	}
	t.vi = nil
	t.trace = nil
	t.deadline = 0
	t.atInjectionPoint = false
	t.steps = 0
	t.flip = nil
	t.exit = nil
	t.ran = 0
	return nil
}

// cleanup tears one experiment's session down on the target's thread:
// watchdog disarmed, child killed and reaped. It is idempotent and runs
// both at normal termination and from InitTestCard when a previous
// experiment errored out mid-algorithm.
func (t *Target) cleanup() {
	if t.watchdog != nil {
		t.watchdog.stop()
		t.watchdog = nil
	}
	if t.tr != nil {
		t.tr.Shutdown()
		t.tr = nil
	}
}

// LoadWorkload resolves the victim binary from the campaign's workload
// source and validates the experiment against the proc fault model: a
// live process supports transient faults only — persistent models need
// a reassertion hook the OS does not provide. It also fetches the
// victim's prefix trace, recording it if this is the first experiment
// to need it (in a campaign that is the reference run): here no
// watchdog is armed yet, so recording cannot eat an experiment's
// deadline.
func (t *Target) LoadWorkload(ex *core.Experiment) error {
	victim := ex.Campaign.Workload.Source
	if victim == "" {
		return &procError{class: core.Persistent,
			err: fmt.Errorf("proctarget: campaign %q has no victim binary (workload source)", ex.Campaign.Name)}
	}
	if _, err := os.Stat(victim); err != nil {
		return &procError{class: core.Persistent,
			err: fmt.Errorf("proctarget: victim binary: %w", err)}
	}
	if ex.Fault != nil && ex.Fault.Kind != faultmodel.Transient {
		return &procError{class: core.Persistent,
			err: fmt.Errorf("proctarget: fault kind %q not injectable into a live process (transient only)", ex.Fault.Kind)}
	}
	vi, err := loadVictim(victim)
	if err != nil {
		return err
	}
	t.vi = vi
	want := ex.Campaign.RandomWindow[1]
	if ex.Trigger.Cycle > want {
		want = ex.Trigger.Cycle
	}
	t.trace, err = vi.prefix(want, timeoutOf(ex))
	return err
}

// WriteMemory is a no-op: the zygote holds the victim's image, there is
// nothing to download.
func (t *Target) WriteMemory(ex *core.Experiment) error { return nil }

// RunWorkload arms the experiment. Its child is made at the first visit
// to the target's thread (child), with the way to the injection point
// or, on the reference run, with the run to the end.
func (t *Target) RunWorkload(ex *core.Experiment) error {
	if t.vi == nil {
		return fmt.Errorf("proctarget: RunWorkload before LoadWorkload")
	}
	mExperiments.Inc()
	t.deadline = timeoutOf(ex)
	return nil
}

// child arms the hang watchdog and makes the experiment's child, stopped
// at main.workload, unless that is done: from here to cleanup every ptrace
// request comes from the target's thread. One deadline covers the whole
// experiment: a zygote built for it, breakpoint hits, the way to the
// injection point (a respawn after an arrival mismatch included), and the
// post-injection run.
func (t *Target) child() error {
	if t.deadline == 0 {
		return fmt.Errorf("proctarget: the child is needed before RunWorkload")
	}
	if t.watchdog == nil {
		t.watchdog = startWatchdog(t.deadline)
		if err := t.spawn(); err != nil {
			return err
		}
	}
	if t.tr == nil {
		return fmt.Errorf("proctarget: the experiment has no child")
	}
	return nil
}

// spawn replaces the current child (killing and reaping it) with a new
// one stopped at main.workload and points the watchdog at it. A child
// that terminated before main.workload is kept as the experiment's
// child, with t.exit saying how it ended.
func (t *Target) spawn() error {
	if t.tr != nil {
		t.watchdog.watch(0)
		t.tr.Shutdown()
		t.tr = nil
	}
	if t.exec || t.vi.noFork.Load() {
		t.dropZygote()
		tr, err := startTraced(t.vi.path)
		if err != nil {
			return err
		}
		t.tr, t.lastPID, t.forked = tr, tr.PID(), false
		t.watchdog.watch(tr.PID())
		hit, ei, err := tr.toWorkload(t.vi)
		if !hit {
			t.exit = ei
		} else if err == nil {
			t.start, err = tr.Regs()
		}
		return err
	}
	if t.z != nil && t.z.stale(t.vi) {
		t.dropZygote()
	}
	if t.z == nil {
		z, ended, err := newZygote(t.vi, t.watchdog)
		if err != nil {
			return err
		}
		if ended != nil {
			t.tr, t.lastPID, t.forked, t.exit = ended, ended.PID(), false, ended.lastState
			return nil
		}
		t.z = z
	}
	tr := t.spare
	if tr != nil {
		t.spare = nil
		mSparesUsed.Inc()
	} else {
		var err error
		if tr, err = t.z.fork(); err != nil {
			// The zygote is dead or wedged: the next attempt execs another.
			t.dropZygote()
			return &procError{class: core.Transient, err: fmt.Errorf("proctarget: forking from the zygote of %q: %w", t.vi.path, err)}
		}
	}
	// Emptied here, not at the fork: a spare is forked while the previous
	// child may still be writing.
	tr.out.reset()
	if !t.freezeSleep {
		tr.freeze = t.vi.freeze
	}
	t.tr, t.lastPID, t.forked, t.start = tr, tr.PID(), true, t.z.start
	t.watchdog.watch(tr.PID())
	return nil
}

// forkSpare forks the next experiment's child while this one runs. A
// zygote that cannot fork is dropped, and the next experiment execs
// another; the running child keeps its verdict and its output.
func (t *Target) forkSpare() {
	tr, err := t.z.fork()
	if err != nil {
		t.dropZygote()
		return
	}
	t.spare = tr
}

// dropZygote kills and reaps the board's zygote and its spare, if it has
// them.
func (t *Target) dropZygote() {
	if t.spare != nil {
		t.spare.Shutdown()
		t.spare = nil
		mSparesUnused.Inc()
	}
	if t.z != nil {
		t.z.tr.Shutdown()
		t.z = nil
	}
}

// hangFired reports whether the watchdog killed the child.
func (t *Target) hangFired() bool { return t.watchdog.fired() }

// watchdog SIGKILLs the child it watches once its deadline has passed.
// The timer goroutine does nothing else — a signal is thread-agnostic,
// unlike every ptrace request — and the tracer's wait unblocks with the
// death.
type watchdog struct {
	mu       sync.Mutex
	pid      int // 0: no child to kill
	expired  bool
	deadline *time.Timer
}

func startWatchdog(d time.Duration) *watchdog {
	w := &watchdog{}
	w.deadline = time.AfterFunc(d, func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.expired = true
		if w.pid != 0 {
			killProcess(w.pid)
		}
	})
	return w
}

// watch names the child to kill; one handed over after the deadline is
// killed at once, so the verdict stands whichever child it catches.
// watch(0) must come before a watched child is reaped: a reaped pid can
// be recycled, and a late firing must not signal a stranger.
func (w *watchdog) watch(pid int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pid = pid
	if w.expired && pid != 0 {
		killProcess(pid)
	}
}

func (w *watchdog) stop() {
	w.deadline.Stop()
	w.watch(0)
}

func (w *watchdog) fired() bool {
	if w == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.expired
}

// WaitForBreakpoint makes the experiment's child and advances it from
// main.workload by the seeded instruction budget (ex.Trigger.Cycle, drawn
// from the campaign's random window): along the victim's prefix trace by
// counted breakpoint hits as far as the trace reaches, by single-steps for
// the rest — all of it when the victim has no usable trace, or when the
// guided arrival fails its check and the experiment is redone on a fresh
// child. If the victim terminates before the injection point is reached,
// the fault's time point never occurred: the experiment proceeds to
// termination uninjected.
func (t *Target) WaitForBreakpoint(ex *core.Experiment) error {
	return t.on(func() error {
		if err := t.child(); err != nil {
			return err
		}
		if t.exit != nil {
			return nil // ended before main.workload
		}
		steps, ei, err := t.toInjectionPoint(ex.Trigger.Cycle)
		t.steps = steps
		if err != nil {
			return t.tracerErr(err)
		}
		if ei != nil {
			t.exit = ei
			return nil
		}
		t.atInjectionPoint = true
		ex.InjectionCycle = ex.Trigger.Cycle
		return nil
	})
}

// toInjectionPoint runs the child from main.workload to budget
// instructions past it. It returns how many of them were executed and,
// when the child terminated first, how.
func (t *Target) toInjectionPoint(budget uint64) (steps uint64, ei *exitInfo, err error) {
	var done uint64
	if t.trace.usable() {
		var arrived bool
		if done, arrived, err = t.guide(budget); err != nil {
			return done, nil, err
		}
		if !arrived {
			if t.hangFired() {
				return done, watchdogKill(), nil
			}
			// The child is not where the recording says it should be:
			// discard it and redo the experiment by stepping. Its zygote
			// goes too: whatever made this child differ from both
			// recordings, every other child of that zygote inherits it.
			mFallbackMismatch.Inc()
			t.dropZygote()
			if err := t.spawn(); err != nil || t.exit != nil {
				return 0, t.exit, err
			}
			done = 0
		}
	} else if t.trace == nil {
		mFallbackNondeterministic.Inc()
	}
	steps, ei, err = t.tr.Step(budget - done)
	return done + steps, ei, err
}

// tracerErr classifies a ptrace failure: if the watchdog killed the
// child while the tracer was mid-conversation, the "error" is really a
// hang and is deferred to WaitForTermination; otherwise it is a
// transient harness fault.
func (t *Target) tracerErr(err error) error {
	if t.hangFired() {
		t.exit = watchdogKill()
		return nil
	}
	return &procError{class: core.Transient, err: err}
}

// InjectFault plans the flip of the fault's bits in the stopped victim;
// WaitForTermination makes it on the target's thread just before the
// child resumes, and the child stands still in between. The fault's bit
// offsets index the campaign's selected chain: register bits go through
// GETREGS/SETREGS, memory bits through PEEK/POKEDATA at the symbol's
// address. Bit numbering is MSB-first within each 64-bit word on both
// chains.
func (t *Target) InjectFault(ex *core.Experiment) error {
	if ex.Fault == nil {
		return nil
	}
	if !t.atInjectionPoint {
		// Workload ended before the trigger fired (same contract as
		// runtime SWIFI): nothing to inject.
		return nil
	}
	flip, err := t.planFlip(ex)
	if err != nil {
		return err
	}
	t.flip = flip
	ex.Injected = true
	return nil
}

// planFlip validates the fault against the chain and returns the flip of
// its bits, to be run on the target's thread.
func (t *Target) planFlip(ex *core.Experiment) (func() error, error) {
	switch ex.Campaign.ChainName {
	case RegisterChainName:
		m := RegisterMap()
		if err := ex.Fault.Validate(m.Length); err != nil {
			return nil, err
		}
		slots := make([][2]int, 0, len(ex.Fault.Bits))
		for _, b := range ex.Fault.Bits {
			slot, valueBit := regSlotOf(b)
			slots = append(slots, [2]int{slot, valueBit})
		}
		return func() error { return t.tr.FlipRegisterBits(slots) }, nil
	case MemoryChainName:
		if t.vi == nil || len(t.vi.memMap.Locations) == 0 {
			return nil, &procError{class: core.Persistent,
				err: fmt.Errorf("proctarget: victim %q exposes no memory chain", ex.Campaign.Workload.Source)}
		}
		if err := ex.Fault.Validate(t.vi.memMap.Length); err != nil {
			return nil, err
		}
		type bit struct {
			addr uint64
			mask byte
		}
		bits := make([]bit, 0, len(ex.Fault.Bits))
		for _, b := range ex.Fault.Bits {
			loc, ok := t.vi.memMap.LocationAt(b)
			if !ok {
				return nil, fmt.Errorf("proctarget: fault bit %d outside memory chain", b)
			}
			// Word-based MSB-first layout: within each aligned 64-bit
			// word of the object, chain bit 0 is value bit 63. On
			// little-endian amd64, value bits 8i..8i+7 live in byte i.
			rel := b - loc.Offset
			word := rel / 64
			valueBit := 63 - rel%64
			bits = append(bits, bit{
				addr: t.vi.symAddrs[loc.Name] + uint64(word*8) + uint64(valueBit/8),
				mask: byte(1) << (valueBit % 8),
			})
		}
		return func() error {
			for _, b := range bits {
				if err := t.tr.FlipMemoryBit(b.addr, b.mask); err != nil {
					return err
				}
			}
			return nil
		}, nil
	default:
		return nil, &procError{class: core.Persistent,
			err: fmt.Errorf("proctarget: unknown chain %q (have %q, %q)", ex.Campaign.ChainName, RegisterChainName, MemoryChainName)}
	}
}

// WaitForTermination flips the planned bits, resumes the victim and
// classifies how it ends (ZOFI taxonomy): watchdog kill → hang; signal or
// non-zero exit → crash; exit 0 with reference-identical output → masked;
// exit 0 with different output → sdc. The reference run itself must exit
// 0 and is recorded as completed; a forked one that does not is redone
// exec'd first (forkFailed). While an experiment's forked child runs, the
// board forks the next one's (forkSpare); the reference run forks none.
func (t *Target) WaitForTermination(ex *core.Experiment) error {
	var (
		ei     *exitInfo
		stdout []byte
		hang   bool
	)
	err := t.on(func() error {
		if err := t.child(); err != nil {
			return err
		}
		if t.flip != nil && t.exit == nil {
			if err := t.flip(); err != nil {
				if err = t.tracerErr(err); err != nil {
					return err
				}
				ex.Injected = false // the watchdog killed the child first
			}
		}
		var err error
		if ei, err = t.finish(!ex.IsReference()); err != nil {
			return err
		}
		if t.forkFailed(ex, ei) {
			t.cleanup()
			t.exit = nil
			if err := t.child(); err != nil {
				return err
			}
			if ei, err = t.finish(false); err != nil {
				return err
			}
		}
		stdout, hang = t.tr.Stdout(), t.hangFired()
		t.cleanup()
		return nil
	})
	if err != nil {
		return err
	}
	ex.PutScratch("proc.stdout", stdout)

	out := campaign.Outcome{Cycles: t.steps, Attempts: 1}
	switch {
	case hang:
		out.Status = campaign.OutcomeHang
		out.Mechanism = "watchdog"
	case ei.signaled || ei.code != 0:
		if ex.IsReference() {
			return &procError{class: core.Persistent,
				err: fmt.Errorf("proctarget: fault-free reference run failed (%s)", ei.mechanism())}
		}
		out.Status = campaign.OutcomeCrash
		out.Mechanism = ei.mechanism()
	case ex.IsReference():
		out.Status = campaign.OutcomeCompleted
	default:
		ref, err := t.vi.referenceStdout(timeoutOf(ex))
		if err != nil {
			return err
		}
		if bytes.Equal(stdout, ref) {
			out.Status = campaign.OutcomeMasked
		} else {
			out.Status = campaign.OutcomeSDC
		}
	}
	ex.Result.Outcome = out
	mOutcomes.With(string(out.Status)).Inc()
	mRunNS[out.Status].Add(uint64(t.ran))
	return nil
}

// finish runs the child to its end, unless it has ended, and reaps it.
// With spare, a board whose child is forked forks the next one's: while
// the child runs, or after it if it gave the tracer no time.
func (t *Target) finish(spare bool) (*exitInfo, error) {
	spare = spare && t.forked && t.z != nil && t.spare == nil
	start := time.Now()
	ei := t.exit
	if ei == nil {
		var meanwhile func()
		if spare {
			meanwhile = t.forkSpare
		}
		resumed, err := t.tr.Resume(meanwhile)
		switch {
		case err == nil:
			ei = resumed
		case t.hangFired():
			ei = watchdogKill()
		default:
			return nil, &procError{class: core.Transient, err: err}
		}
	}
	t.watchdog.stop()
	t.tr.kill()
	t.ran = time.Since(start)
	if spare && t.z != nil && t.spare == nil {
		t.forkSpare()
	}
	return ei, nil
}

// forkFailed reports whether ex is the reference run, its child was
// forked, and it failed — hung, crashed or exited non-zero — where an
// exec'd run of the victim exits 0. Then the victim is marked noFork and
// the reference is to be redone on an exec'd child. A forked child has
// only the thread that was traced: a victim that parks a goroutine locked
// to that thread (runtime.LockOSThread), in a sleep, a channel receive or
// a collection, hands its P to a thread the child does not have and never
// gets it back. An exec'd run of the same victim completes.
func (t *Target) forkFailed(ex *core.Experiment, ei *exitInfo) bool {
	if !ex.IsReference() || !t.forked || !t.hangFired() && !ei.signaled && ei.code == 0 {
		return false
	}
	if _, err := t.vi.referenceStdout(timeoutOf(ex)); err != nil {
		return false // the victim fails exec'd too
	}
	t.vi.noFork.Store(true)
	return true
}

// ReadMemory stores the captured stdout as the experiment's observed
// memory, keying the analysis layer's output comparison.
func (t *Target) ReadMemory(ex *core.Experiment) error {
	if ex.Result.Memory == nil {
		ex.Result.Memory = make(map[string][]byte, 1)
	}
	if v, ok := ex.Scratch("proc.stdout"); ok {
		ex.Result.Memory["stdout"] = v.([]byte)
	}
	return nil
}

// Probe checks whether ptrace works here (it is unavailable on
// non-linux builds and in restricted containers): it runs one complete
// traced session against the given binary. Tests call it to skip
// cleanly.
func Probe(victim string) error {
	if _, err := loadVictim(victim); err != nil {
		return err
	}
	lockThread()
	defer unlockThread()
	tr, err := startTraced(victim)
	if err != nil {
		return err
	}
	defer tr.Shutdown()
	if _, err := tr.Resume(nil); err != nil {
		return err
	}
	return nil
}

func init() {
	core.RegisterTarget(core.TargetInfo{
		Kind:          Kind,
		Description:   "live OS process via ptrace: fork, stop, flip, resume, classify (masked/sdc/crash/hang)",
		Algorithm:     core.RuntimeSWIFI.Name,
		Deterministic: false,
		New: func(cfg core.TargetConfig) (core.TargetSystem, error) {
			return New(cfg)
		},
		SystemData: SystemData,
	})
}

// Interface compliance.
var (
	_ core.TargetSystem           = (*Target)(nil)
	_ core.NondeterministicTarget = (*Target)(nil)
	_ core.Classifier             = (*procError)(nil)
)
