package scifi

import (
	"bytes"
	"fmt"
	"slices"

	"goofi/internal/asm"
	"goofi/internal/bitvec"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/envsim"
	"goofi/internal/scanchain"
	"goofi/internal/thor"
	"goofi/internal/trigger"
)

// runSlice is the cycle granularity at which WaitForTermination checks
// termination conditions and reasserts persistent faults.
const runSlice = 4096

// device adapts the THOR-S CPU to the scanchain.Device interface.
type device struct {
	cpu *thor.CPU
}

func (d *device) BoundaryLen() int                           { return thor.BoundaryLen() }
func (d *device) CaptureBoundary() *bitvec.Vector            { return d.cpu.BoundaryRead() }
func (d *device) InternalLen() int                           { return thor.ScanLen() }
func (d *device) CaptureInternalInto(v *bitvec.Vector) error { return d.cpu.ScanReadInto(v) }
func (d *device) UpdateInternal(v *bitvec.Vector) error      { return d.cpu.ScanWrite(v) }
func (d *device) IDCode() uint32                             { return IDCode }

// Technique is what an injection technique hands the board it drives, on
// top of the abstract methods it defines itself: the two places where the
// board's own steps depend on how the fault gets in.
type Technique struct {
	// Name is the target system's name.
	Name string
	// Image returns the bytes WriteMemory downloads to address 0; nil
	// means the assembled program's image. SWIFI hands over its own copy,
	// which pre-runtime injection has mutated.
	Image func() []byte
	// Reassert re-applies an injected persistent fault; the board calls it
	// after every run slice and every environment exchange of the faulty
	// remainder of the run. nil means the technique's faults are not
	// reasserted: a pin force is released after its hold, a memory word
	// stays as written.
	Reassert func(ex *core.Experiment) error
}

// Board is the technique-neutral THOR-S test board: reset, workload
// download, trigger wait, the gated injectFault, the termination loop with
// its outcome, result read-back, the detail-mode trace and checkpoint
// forwarding. A technique embeds it and adds its injection steps; one Board
// drives one simulated board and is not safe for concurrent campaigns.
type Board struct {
	core.Framework

	tech Technique
	cpu  *thor.CPU
	dev  *device
	ctrl *scanchain.Controller
	envs *envsim.Registry

	// per-experiment state, reset by InitTestCard
	prog             *asm.Program
	trig             trigger.Trigger
	sim              envsim.Simulator
	iteration        int
	detailStep       int
	atInjectionPoint bool
	// outputs is everything drained from the workload's output port so
	// far, in one buffer the board keeps from experiment to experiment.
	// finishOutcome publishes a copy as ex.Result.Outputs: a control loop
	// drains every 55 cycles, and a map lookup, a map assign and an append
	// to a slice held in a map each time cost more than the iteration.
	outputs []uint32

	// watch is the boundary oracle's state for the run in its
	// termination loop (boundary.go).
	watch boundaryWatch

	// campaign-scoped checkpoint-forwarding state; preserved across
	// InitTestCard, managed through the core.Forwarder methods.
	fwRec *fwRecorder
	fwSet *core.ForwardSet
	// scanScratch is the reusable scan vector for the per-slice hot
	// paths (persistent-fault reassertion, detail-mode state capture).
	scanScratch *bitvec.Vector

	// assembled is the immutable program of the last workload source this
	// board loaded; it outlives InitTestCard, so a campaign's experiments
	// compare one string header instead of hashing the source each.
	assembledSource string
	assembled       *asm.Program

	// armed is the trigger the board last built, which it rebuilds in
	// place for the next experiment. sims are the simulators it keeps from
	// experiment to experiment, made for the simulator simName names:
	// sims[0] a run's, sims[1] the one a checkpoint restore prepares and
	// swaps in (fwRestore). memBuf is where ReadMemory reads a symbol to,
	// and the result's copies of memory and outputs are carved from
	// memKept and outKept.
	armed   trigger.Trigger
	sims    [2]envsim.Simulator
	simName string
	memBuf  []byte
	memKept core.Slab[byte]
	outKept core.Slab[uint32]

	// fastPath selects thor's batched execution mode for trigger waits
	// and termination runs (byte-identical to cycle-accurate execution;
	// see internal/thor/cpu_fastpath.go). On by default; NoFastPath
	// turns it off for A/B benchmarking and differential suites.
	fastPath bool
}

// Option configures a Board.
type Option func(*Board)

// NewBoard returns a fresh THOR-S board driven by the given technique.
func NewBoard(cfg thor.Config, tech Technique, opts ...Option) *Board {
	t := &Board{
		Framework: core.Framework{TargetName: tech.Name},
		tech:      tech,
		envs:      envsim.NewRegistry(),
		fastPath:  true,
	}
	for _, o := range opts {
		o(t)
	}
	t.cpu = thor.New(cfg)
	t.dev = &device{cpu: t.cpu}
	t.ctrl = scanchain.NewController(t.dev)
	return t
}

// WithEnvRegistry replaces the environment simulator registry.
func WithEnvRegistry(r *envsim.Registry) Option {
	return func(t *Board) { t.envs = r }
}

// NoFastPath disables thor's batched fast-path execution and runs every
// cycle through the cycle-accurate Step path. Outcomes are identical
// either way (pinned by the differential suites); this exists for A/B
// benchmarking and belt-and-braces verification runs.
func NoFastPath() Option {
	return func(t *Board) { t.fastPath = false }
}

// TargetOptions reads the board options a configured target carries in its
// target params: fastpath=off is the oracle every thor-backed kind has.
func TargetOptions(cfg core.TargetConfig) []Option {
	if cfg.Param("fastpath", "on") == "off" {
		return []Option{NoFastPath()}
	}
	return nil
}

// Deterministic declares the simulator's full differential guarantee:
// same plan, byte-identical records, whatever the technique. Stated
// explicitly so the relaxation introduced for live-process targets can
// never silently widen.
func (t *Board) Deterministic() bool { return true }

// CPU exposes the underlying processor to the techniques, to tests and to
// the pre-injection analysis.
func (t *Board) CPU() *thor.CPU { return t.cpu }

// Controller exposes the scan-chain controller.
func (t *Board) Controller() *scanchain.Controller { return t.ctrl }

// Program returns the workload program LoadWorkload assembled.
func (t *Board) Program() *asm.Program { return t.prog }

// AtInjectionPoint reports whether WaitForBreakpoint stopped the workload
// at the experiment's injection point (it may terminate first).
func (t *Board) AtInjectionPoint() bool { return t.atInjectionPoint }

// InitTestCard resets the board: TAP and controller reset, CPU to
// power-on state, memory cleared, per-experiment state discarded. The
// controller is reset in place (byte-identical to a fresh controller,
// pinned by TestControllerResetMatchesFresh, but without reallocating
// its multi-kilobit scratch vector on the per-experiment hot path)
// before the CPU is reconfigured so no stale scan traffic can touch the
// fresh CPU state, and trap handlers — which survive a bare CPU reset —
// are cleared explicitly: a reused board must behave identically to a
// fresh one.
func (t *Board) InitTestCard(ex *core.Experiment) error {
	t.ctrl.Reset()
	t.cpu.Reset()
	t.cpu.ClearMemory()
	t.cpu.ClearTrapHandlers()
	t.cpu.TraceHook = nil
	t.prog = nil
	t.trig = nil
	t.sim = nil
	t.iteration = 0
	t.detailStep = 0
	t.atInjectionPoint = false
	t.outputs = t.outputs[:0]
	return nil
}

// LoadWorkload assembles the campaign's workload source. Every experiment
// of a campaign shares one immutable Program, and only the memory image
// download is per-run: the board remembers the source it assembled last,
// and goes to the process-wide cache (a SHA-256 of the source under a
// mutex) only when handed another.
func (t *Board) LoadWorkload(ex *core.Experiment) error {
	if src := ex.Campaign.Workload.Source; t.assembled == nil || src != t.assembledSource {
		prog, err := asm.AssembleCached(src)
		if err != nil {
			return fmt.Errorf("scifi: assemble workload %q: %w", ex.Campaign.Workload.Name, err)
		}
		t.assembledSource, t.assembled = src, prog
	}
	t.prog = t.assembled
	return nil
}

// WriteMemory downloads the workload image and the initial input data,
// and installs any recovery trap handlers.
func (t *Board) WriteMemory(ex *core.Experiment) error {
	if t.prog == nil {
		return fmt.Errorf("scifi: WriteMemory before LoadWorkload")
	}
	image := t.prog.Image
	if t.tech.Image != nil {
		image = t.tech.Image()
	}
	if err := t.cpu.LoadMemory(0, image); err != nil {
		return err
	}
	wl := &ex.Campaign.Workload
	for code, symbol := range wl.RecoveryHandlers {
		addr, err := t.prog.Symbol(symbol)
		if err != nil {
			return fmt.Errorf("scifi: recovery handler: %w", err)
		}
		t.cpu.SetTrapHandler(code, addr)
	}
	if ex.Campaign.EnvSim != nil {
		sim, err := t.simulator(ex, 0)
		if err != nil {
			return err
		}
		t.sim = sim
		// Initial input data (paper §3.3: "the workload and initial
		// input data is downloaded"). PushInput copies what Exchange
		// returns, which is only good until the next Exchange.
		t.cpu.Ports().PushInput(wl.InputPort, sim.Exchange(nil)...)
	}
	return nil
}

// simulator returns the board's kept simulator i for the experiment's
// campaign, reset: the one kept from an earlier experiment when it was made
// for the same simulator (envsim.Simulator's Reset makes it as good as
// new), a new one from the registry otherwise.
func (t *Board) simulator(ex *core.Experiment, i int) (envsim.Simulator, error) {
	spec := ex.Campaign.EnvSim
	if spec.Name != t.simName {
		t.sims, t.simName = [2]envsim.Simulator{}, spec.Name
	}
	if t.sims[i] != nil {
		t.sims[i].Reset(spec.Params)
		return t.sims[i], nil
	}
	sim, err := t.envs.New(spec.Name, spec.Params)
	if err == nil {
		t.sims[i] = sim
	}
	return sim, err
}

// RunWorkload arms the experiment: the injection trigger is built and the
// detail-mode trace hook installed. On the simulated board execution is
// demand-driven, so "starting" the workload means arming it.
func (t *Board) RunWorkload(ex *core.Experiment) error {
	if ex.IsReference() && t.fwRec != nil && !t.fwRec.plan.NoDefUse {
		// A recording reference run of a campaign that prunes also records
		// its def-use table, from the first instruction on, under the
		// set's byte budget.
		t.cpu.RecordDefUse(t.fwRec.plan.MaxBytes)
	}
	if !ex.IsReference() {
		trig, err := ex.Trigger.Rebuild(t.armed)
		if err != nil {
			return err
		}
		trig.Reset()
		t.trig, t.armed = trig, trig
	}
	if ex.DetailSink != nil {
		t.installDetailHook(ex)
	}
	return nil
}

// installDetailHook logs the observable system state after every machine
// instruction (detail mode, paper §3.3).
func (t *Board) installDetailHook(ex *core.Experiment) {
	t.cpu.TraceHook = func(c *thor.CPU) {
		sv, err := t.captureState(ex)
		if err != nil {
			return
		}
		_ = ex.DetailSink(t.detailStep, sv)
		t.detailStep++
	}
}

// WaitForBreakpoint runs until the injection trigger fires, exchanging
// environment data at iteration boundaries. If the workload terminates
// before the trigger fires, the experiment proceeds without injection
// (the fault's time point was never reached).
func (t *Board) WaitForBreakpoint(ex *core.Experiment) error {
	if t.trig == nil {
		return fmt.Errorf("scifi: WaitForBreakpoint before RunWorkload")
	}
	// Fast-forward over the fault-free prefix when a recorded checkpoint
	// covers this experiment's injection point (no-op otherwise).
	t.fwRestore(ex)
	budget := ex.Campaign.Termination.TimeoutCycles
	for {
		var fired bool
		var st thor.Status
		if t.fastPath {
			fired, st = trigger.RunUntilFast(t.cpu, t.trig, ex.Trigger, remaining(budget, t.cpu.Cycle()))
		} else {
			fired, st = trigger.RunUntil(t.cpu, t.trig, remaining(budget, t.cpu.Cycle()))
		}
		if fired {
			ex.InjectionCycle = t.cpu.Cycle()
			t.atInjectionPoint = true
			return nil
		}
		switch st {
		case thor.StatusIterationEnd:
			if _, err := t.exchange(ex); err != nil {
				return err
			}
		case thor.StatusRunning:
			// Timeout budget exhausted before the trigger fired.
			return nil
		default:
			// Halted or detected before the injection point.
			return nil
		}
	}
}

// InjectFault applies the fault to the vector the technique's
// readScanChain captured, but only when the injection point was actually
// reached: if the workload terminated before the trigger fired, the
// fault's time point never occurred and the experiment is logged as not
// injected.
func (t *Board) InjectFault(ex *core.Experiment) error {
	if !t.atInjectionPoint {
		return nil
	}
	return t.Framework.InjectFault(ex)
}

// collectOutputs drains the workload's output port onto the experiment's
// accumulated outputs and returns what it drained.
func (t *Board) collectOutputs(ex *core.Experiment) []uint32 {
	outs := t.cpu.Ports().DrainOutput(ex.Campaign.Workload.OutputPort)
	t.outputs = append(t.outputs, outs...)
	return outs
}

// endIteration collects the outputs of the iteration that just ended.
func (t *Board) endIteration(ex *core.Experiment) []uint32 {
	t.iteration++
	return t.collectOutputs(ex)
}

// exchange performs one environment-simulator data exchange at an
// iteration boundary and resumes the CPU. The inputs go from the
// simulator's buffer into the port queue at once (envsim.Simulator); the
// buffer is returned, good until the next exchange.
func (t *Board) exchange(ex *core.Experiment) (ins []uint32, err error) {
	outs := t.endIteration(ex)
	if t.sim != nil {
		ins = t.sim.Exchange(outs)
		t.cpu.Ports().PushInput(ex.Campaign.Workload.InputPort, ins...)
	}
	return ins, t.cpu.ResumeIteration()
}

// WaitForTermination resumes execution until a termination condition
// occurs: time-out, error detection, workload end, or the iteration limit
// (paper §3.2), reasserting persistent faults and exchanging environment
// data along the way.
func (t *Board) WaitForTermination(ex *core.Experiment) error {
	term := ex.Campaign.Termination
	persistent := t.tech.Reassert != nil && ex.Fault != nil && ex.Fault.Kind.Persistent() && ex.Injected
	t.armBoundary(ex, persistent)
	for {
		if t.cpu.Cycle() >= term.TimeoutCycles {
			t.finishOutcome(ex, campaign.OutcomeTimeout, nil)
			return nil
		}
		// At the loop top the CPU is at an instruction boundary in the
		// Running state: the place to capture forwarding checkpoints.
		// The slice budget is shaped so the run stops at the next
		// planned cycle (a no-op outside a recording reference run).
		t.fwMaybeRecord(ex)
		st := t.runCPU(t.fwSliceBudget(ex, min(runSlice, term.TimeoutCycles-t.cpu.Cycle())))
		switch st {
		case thor.StatusHalted:
			t.finishOutcome(ex, campaign.OutcomeCompleted, nil)
			return nil
		case thor.StatusDetected:
			t.finishOutcome(ex, campaign.OutcomeDetected, t.cpu.Detection())
			return nil
		case thor.StatusIterationEnd:
			if term.MaxIterations > 0 && t.iteration+1 >= term.MaxIterations {
				// Final iteration completed: drain outputs and end.
				t.endIteration(ex)
				t.finishOutcome(ex, campaign.OutcomeCompleted, nil)
				return nil
			}
			ins, err := t.exchange(ex)
			if err != nil {
				return err
			}
			if persistent {
				if err := t.tech.Reassert(ex); err != nil {
					return err
				}
			}
			// The boundary oracle (boundary.go) may end the run on the
			// reference's end state, or skip its steady state.
			if t.watch.on {
				if done, err := t.boundary(ex, ins); done || err != nil {
					return err
				}
			}
		case thor.StatusOutOfBudget:
			if err := t.cpu.ClearOutOfBudget(); err != nil {
				return err
			}
			if persistent {
				if err := t.tech.Reassert(ex); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("scifi: unexpected status %v during termination", st)
		}
	}
}

// scanVectorScratch returns the board's reusable internal-chain vector.
func (t *Board) scanVectorScratch() *bitvec.Vector {
	if t.scanScratch == nil || t.scanScratch.Len() != thor.ScanLen() {
		t.scanScratch = bitvec.New(thor.ScanLen())
	}
	return t.scanScratch
}

// finishOutcome fills the experiment outcome. Outputs equal to the
// reference run's (ex.Reference) are the reference's.
func (t *Board) finishOutcome(ex *core.Experiment, status campaign.OutcomeStatus, det *thor.Detection) {
	out := campaign.Outcome{
		Status:     status,
		Cycles:     t.cpu.Cycle(),
		Iterations: t.iteration,
	}
	if det != nil {
		out.Mechanism = det.Mechanism.String()
		out.DetectionCycle = det.Cycle
	}
	for i := range t.cpu.NumEvents() {
		if ev := t.cpu.Event(i); ev.Mechanism == thor.EDMAssertion && (det == nil || ev.Cycle != det.Cycle) {
			out.Recovered++
		}
	}
	// Drain any outputs emitted since the last exchange, and publish: the
	// port's entry exists once an iteration ended or a value was emitted —
	// nil when iterations ended and nothing ever was — and holds a copy,
	// because the record outlives the board's buffer, or the reference's
	// own when it is the same.
	if t.collectOutputs(ex); t.iteration > 0 || len(t.outputs) > 0 {
		port := ex.Campaign.Workload.OutputPort
		var ref map[uint16][]uint32
		if ex.Reference != nil {
			ref = ex.Reference.Outputs
		}
		switch rv, ok := ref[port]; {
		case ok && len(ref) == 1 && (rv == nil) == (len(t.outputs) == 0) && slices.Equal(rv, t.outputs):
			ex.Result.Outputs = ref
		default:
			ex.Result.Outputs = map[uint16][]uint32{port: t.outKept.Copy(t.outputs)}
		}
	}
	ex.Result.Outcome = out
	t.fwRecordEnd(ex, status)
}

// ReadMemory reads the workload's result symbols back from target memory.
// A run that left them as the reference run did (ex.Reference) gets the
// reference's map, and one that did not the reference's bytes for every
// symbol it left alone: only what differs is copied.
func (t *Board) ReadMemory(ex *core.Experiment) error {
	if t.prog == nil {
		return fmt.Errorf("scifi: ReadMemory before LoadWorkload")
	}
	wl := &ex.Campaign.Workload
	words := wl.ResultWords
	if words <= 0 {
		words = 1
	}
	if cap(t.memBuf) < words*4 {
		t.memBuf = make([]byte, words*4)
	}
	buf := t.memBuf[:words*4]
	var ref map[string][]byte
	if ex.Reference != nil {
		ref = ex.Reference.Memory
	}
	// read returns symbol sym's bytes in buf and the reference's, when they
	// are the same.
	read := func(sym string) (same []byte, err error) {
		addr, err := t.prog.Symbol(sym)
		if err != nil {
			return nil, fmt.Errorf("scifi: result symbol: %w", err)
		}
		if err := t.cpu.ReadMemoryInto(buf, addr); err != nil {
			return nil, err
		}
		if rb := ref[sym]; rb != nil && bytes.Equal(rb, buf) {
			return rb, nil
		}
		return nil, nil
	}
	shared := ref != nil && len(ref) == len(wl.ResultSymbols)
	for i := 0; shared && i < len(wl.ResultSymbols); i++ {
		same, err := read(wl.ResultSymbols[i])
		if err != nil {
			return err
		}
		shared = same != nil
	}
	if shared && ex.Result.Memory == nil {
		ex.Result.Memory = ref
		return nil
	}
	if ex.Result.Memory == nil {
		ex.Result.Memory = make(map[string][]byte, len(wl.ResultSymbols))
	}
	for _, sym := range wl.ResultSymbols {
		same, err := read(sym)
		if err != nil {
			return err
		}
		if same == nil {
			same = t.memKept.Copy(buf)
		}
		ex.Result.Memory[sym] = same
	}
	return nil
}

// captureState samples the observable system state for detail-mode
// logging: the scan chain (host-side read so the run is not perturbed)
// and current outputs.
func (t *Board) captureState(ex *core.Experiment) (*campaign.StateVector, error) {
	v := t.scanVectorScratch()
	if err := t.cpu.ScanReadInto(v); err != nil {
		return nil, err
	}
	scan, err := v.MarshalBinary()
	if err != nil {
		return nil, err
	}
	sv := &campaign.StateVector{Scan: scan}
	wl := &ex.Campaign.Workload
	if outs := t.cpu.Ports().PeekOutput(wl.OutputPort); len(outs) > 0 {
		sv.Outputs = map[uint16][]uint32{wl.OutputPort: outs}
	}
	return sv, nil
}

// runCPU runs one execution slice through the selected execution mode.
func (t *Board) runCPU(cycleBudget uint64) thor.Status {
	if t.fastPath {
		return t.cpu.RunFast(cycleBudget)
	}
	return t.cpu.Run(cycleBudget)
}

func remaining(budget, used uint64) uint64 {
	if used >= budget {
		return 0
	}
	return budget - used
}
