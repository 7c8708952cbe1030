// Package proctarget implements fault injection into live OS processes,
// in the style of ZOFI: the victim program is forked as a real child
// process, stopped at a seeded injection point with Linux ptrace
// (breakpoint at the workload symbol, then an instruction count drawn
// from the campaign's random window, reached by counting breakpoint
// hits along a recorded fault-free prefix trace — prefix.go), a
// register or memory bit is flipped, execution resumes, and the
// termination is classified into the ZOFI outcome taxonomy — masked,
// sdc, crash, hang.
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
	"sort"
	"strings"
	"sync"
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
// breakpoint address, the extent of the workload function and the
// writable main.* object symbols forming the memory chain — plus what
// is memoised per binary from fault-free runs: the reference stdout and
// the prefix trace.
type victimInfo struct {
	path        string
	workload    uint64
	workloadEnd uint64 // workload + symbol size: [workload, workloadEnd) is plantable
	memMap      scanchain.Map
	symAddrs    map[string]uint64 // location name -> virtual address
	refStdout   []byte            // fault-free stdout, filled lazily
	refOnce     sync.Once
	refErr      error

	traceMu  sync.Mutex
	trace    *prefixTrace // nil until recorded, and while stepOnly
	stepOnly bool         // two recordings disagreed: single-step this victim
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
	for _, s := range syms {
		if s.Name == WorkloadSymbol && elf.ST_TYPE(s.Info) == elf.STT_FUNC {
			vi.workload, vi.workloadEnd = s.Value, s.Value+s.Size
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
	if vi.workload == 0 {
		return nil, &procError{class: core.Persistent,
			err: fmt.Errorf("proctarget: victim %q has no %s function (mark the kernel //go:noinline)", path, WorkloadSymbol)}
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

// referenceStdout returns the victim's fault-free output, captured
// once per binary by running it plain (untraced). masked-vs-sdc
// classification compares against this capture.
func (vi *victimInfo) referenceStdout(timeout time.Duration) ([]byte, error) {
	vi.refOnce.Do(func() {
		if timeout < time.Second {
			timeout = time.Second
		}
		cmd := exec.Command(vi.path)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Start(); err != nil {
			vi.refErr = fmt.Errorf("proctarget: reference run: %w", err)
			return
		}
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
type Target struct {
	core.Framework

	// Per-experiment state, reset by InitTestCard.
	vi               *victimInfo
	trace            *prefixTrace // nil: reach the injection point by stepping
	tr               *tracer
	watchdog         *watchdog
	locked           bool
	atInjectionPoint bool
	steps            uint64
	exit             *exitInfo // termination observed before WaitForTermination
	lastPID          int
}

// New builds a proc target. The victim binary is taken per experiment
// from the campaign's Workload.Source, so one target serves any victim.
func New(core.TargetConfig) (*Target, error) {
	return &Target{Framework: core.Framework{TargetName: "proc"}}, nil
}

// Deterministic declares the relaxation: proc outcomes are statistical,
// only the fault plan is reproducible.
func (t *Target) Deterministic() bool { return false }

// LastPID reports the pid of the most recently traced child, for leak
// tests ( /proc/<pid> liveness ).
func (t *Target) LastPID() int { return t.lastPID }

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

// InitTestCard resets per-experiment state, reaping any child a failed
// previous experiment left behind.
func (t *Target) InitTestCard(ex *core.Experiment) error {
	t.cleanup()
	t.vi = nil
	t.trace = nil
	t.atInjectionPoint = false
	t.steps = 0
	t.exit = nil
	return nil
}

// cleanup tears one traced session down: watchdog disarmed, child
// killed and reaped, stdout reader joined, OS thread unlocked. It is
// idempotent and runs both at normal termination and from InitTestCard
// when a previous experiment errored out mid-algorithm.
func (t *Target) cleanup() {
	if t.watchdog != nil {
		t.watchdog.stop()
		t.watchdog = nil
	}
	if t.tr != nil {
		t.tr.Shutdown()
		t.tr = nil
	}
	if t.locked {
		t.locked = false
		unlockThread()
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

// WriteMemory is a no-op: exec loads the victim's image, there is
// nothing to download.
func (t *Target) WriteMemory(ex *core.Experiment) error { return nil }

// RunWorkload forks the victim under ptrace, stopped before its first
// instruction, plants the workload breakpoint (injection runs only)
// and arms the hang watchdog. From here to cleanup every ptrace
// request must come from this OS thread.
func (t *Target) RunWorkload(ex *core.Experiment) error {
	if t.vi == nil {
		return fmt.Errorf("proctarget: RunWorkload before LoadWorkload")
	}
	lockThread()
	t.locked = true
	mExperiments.Inc()
	// One deadline covers the whole experiment: breakpoint wait, the
	// way to the injection point (a respawn after an arrival mismatch
	// included), and the post-injection run.
	t.watchdog = startWatchdog(timeoutOf(ex))
	return t.spawn(!ex.IsReference())
}

// spawn forks a fresh traced child, replacing (and reaping) the current
// one, and points the watchdog at it.
func (t *Target) spawn(breakAtWorkload bool) error {
	if t.tr != nil {
		t.watchdog.watch(0)
		t.tr.Shutdown()
		t.tr = nil
	}
	tr, err := startTraced(t.vi.path)
	if err != nil {
		return err
	}
	t.tr = tr
	t.lastPID = tr.PID()
	t.watchdog.watch(tr.PID())
	if breakAtWorkload {
		return tr.SetBreakpoint(t.vi.workload)
	}
	return nil
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

// WaitForBreakpoint continues to the workload breakpoint and then
// advances the seeded instruction budget (ex.Trigger.Cycle, drawn from
// the campaign's random window): along the victim's prefix trace by
// counted breakpoint hits as far as the trace reaches, by single-steps
// for the rest — all of it when the victim has no usable trace, or when
// the guided arrival fails its check and the experiment is redone on a
// fresh child. If the victim terminates before the injection point is
// reached, the fault's time point never occurred: the experiment
// proceeds to termination uninjected.
func (t *Target) WaitForBreakpoint(ex *core.Experiment) error {
	if t.tr == nil {
		return fmt.Errorf("proctarget: WaitForBreakpoint before RunWorkload")
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
}

// toInjectionPoint runs the child from exec to budget instructions past
// the workload breakpoint. It returns how many of them were executed
// and, when the child terminated first, how.
func (t *Target) toInjectionPoint(budget uint64) (steps uint64, ei *exitInfo, err error) {
	hit, ei, err := t.tr.ContToBreakpoint()
	if err != nil || !hit {
		return 0, ei, err
	}
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
			// discard it and redo the experiment by stepping.
			mFallbackMismatch.Inc()
			if err := t.spawn(true); err != nil {
				return 0, nil, err
			}
			done = 0
			if hit, ei, err = t.tr.ContToBreakpoint(); err != nil || !hit {
				return 0, ei, err
			}
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

// InjectFault flips the planned bits in the stopped victim. The fault's
// bit offsets index the campaign's selected chain: register bits go
// through GETREGS/SETREGS, memory bits through PEEK/POKEDATA at the
// symbol's address. Bit numbering is MSB-first within each 64-bit word
// on both chains.
func (t *Target) InjectFault(ex *core.Experiment) error {
	if ex.Fault == nil {
		return nil
	}
	if !t.atInjectionPoint {
		// Workload ended before the trigger fired (same contract as
		// runtime SWIFI): nothing to inject.
		return nil
	}
	switch ex.Campaign.ChainName {
	case RegisterChainName:
		m := RegisterMap()
		if err := ex.Fault.Validate(m.Length); err != nil {
			return err
		}
		slots := make([][2]int, 0, len(ex.Fault.Bits))
		for _, b := range ex.Fault.Bits {
			slot, valueBit := regSlotOf(b)
			slots = append(slots, [2]int{slot, valueBit})
		}
		if err := t.tr.FlipRegisterBits(slots); err != nil {
			return t.tracerErr(err)
		}
	case MemoryChainName:
		if t.vi == nil || len(t.vi.memMap.Locations) == 0 {
			return &procError{class: core.Persistent,
				err: fmt.Errorf("proctarget: victim %q exposes no memory chain", ex.Campaign.Workload.Source)}
		}
		if err := ex.Fault.Validate(t.vi.memMap.Length); err != nil {
			return err
		}
		for _, b := range ex.Fault.Bits {
			loc, ok := t.vi.memMap.LocationAt(b)
			if !ok {
				return fmt.Errorf("proctarget: fault bit %d outside memory chain", b)
			}
			// Word-based MSB-first layout: within each aligned 64-bit
			// word of the object, chain bit 0 is value bit 63. On
			// little-endian amd64, value bits 8i..8i+7 live in byte i.
			rel := b - loc.Offset
			word := rel / 64
			valueBit := 63 - rel%64
			addr := t.vi.symAddrs[loc.Name] + uint64(word*8) + uint64(valueBit/8)
			mask := byte(1) << (valueBit % 8)
			if err := t.tr.FlipMemoryBit(addr, mask); err != nil {
				return t.tracerErr(err)
			}
		}
	default:
		return &procError{class: core.Persistent,
			err: fmt.Errorf("proctarget: unknown chain %q (have %q, %q)", ex.Campaign.ChainName, RegisterChainName, MemoryChainName)}
	}
	if t.exit == nil {
		ex.Injected = true
	}
	return nil
}

// WaitForTermination resumes the victim and classifies how it ends
// (ZOFI taxonomy): watchdog kill → hang; signal or non-zero exit →
// crash; exit 0 with reference-identical output → masked; exit 0 with
// different output → sdc. The reference run itself must exit 0 and is
// recorded as completed.
func (t *Target) WaitForTermination(ex *core.Experiment) error {
	if t.tr == nil {
		return fmt.Errorf("proctarget: WaitForTermination before RunWorkload")
	}
	ei := t.exit
	if ei == nil {
		resumed, err := t.tr.Resume()
		if err != nil {
			if t.hangFired() {
				ei = watchdogKill()
			} else {
				return &procError{class: core.Transient, err: err}
			}
		} else {
			ei = resumed
		}
	}
	stdout := t.tr.Stdout()
	if len(stdout) > maxStdout {
		stdout = stdout[:maxStdout]
	}
	ex.PutScratch("proc.stdout", stdout)

	out := campaign.Outcome{Cycles: t.steps, Attempts: 1}
	switch {
	case t.hangFired():
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
	t.cleanup()
	return nil
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
	if _, err := tr.Resume(); err != nil {
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
