// Package preinject implements pre-injection analysis, the paper's §4
// efficiency extension: "determine when registers and other fault
// injection locations hold live data. Injecting a fault into a location
// that does not hold live data serves no purpose, since the fault will be
// overwritten."
//
// The analysis traces the fault-free reference execution, recording every
// register read and write. A register is *live* at cycle t when its next
// access after t is a read; injections into dead (next-access-is-write)
// registers are guaranteed to be overwritten and can be skipped, raising
// the effective-error yield per experiment.
package preinject

import (
	"fmt"
	"sort"

	"goofi/internal/asm"
	"goofi/internal/campaign"
	"goofi/internal/envsim"
	"goofi/internal/faultmodel"
	"goofi/internal/thor"
	"goofi/internal/trigger"
)

// Analysis is the liveness result over the reference execution: thor's
// def-use table of the run, asked about the register file.
type Analysis struct {
	uses       *thor.DefUse
	EndCycle   uint64
	Instrs     uint64
	regFields  [thor.NumRegs]thor.ScanField
	haveFields bool
}

// AnalyzeWorkload runs the fault-free workload on a fresh THOR-S and
// records the register access trace. Environment-simulator campaigns are
// supported through the same iteration-exchange protocol as the targets.
func AnalyzeWorkload(cfg thor.Config, camp *campaign.Campaign) (*Analysis, error) {
	prog, err := asm.AssembleCached(camp.Workload.Source)
	if err != nil {
		return nil, fmt.Errorf("preinject: assemble workload: %w", err)
	}
	cpu := thor.New(cfg)
	if err := cpu.LoadMemory(0, prog.Image); err != nil {
		return nil, err
	}
	for code, symbol := range camp.Workload.RecoveryHandlers {
		addr, err := prog.Symbol(symbol)
		if err != nil {
			return nil, fmt.Errorf("preinject: recovery handler: %w", err)
		}
		cpu.SetTrapHandler(code, addr)
	}
	var sim envsim.Simulator
	if camp.EnvSim != nil {
		reg := envsim.NewRegistry()
		sim, err = reg.New(camp.EnvSim.Name, camp.EnvSim.Params)
		if err != nil {
			return nil, err
		}
		cpu.Ports().PushInput(camp.Workload.InputPort, sim.Exchange(nil)...)
	}

	a := &Analysis{}
	a.initFields()
	// done closes the recording: every instruction executed is one
	// boundary of the table.
	done := func() (*Analysis, error) {
		a.uses = cpu.TakeDefUse()
		a.Instrs = uint64(len(a.uses.Boundaries))
		a.EndCycle = cpu.Cycle()
		return a, nil
	}
	cpu.RecordDefUse(0)
	iterations := 0
	term := camp.Termination
	for cpu.Cycle() < term.TimeoutCycles {
		switch cpu.Status() {
		case thor.StatusRunning:
			cpu.Step()
		case thor.StatusIterationEnd:
			outs := cpu.Ports().DrainOutput(camp.Workload.OutputPort)
			if sim != nil {
				cpu.Ports().PushInput(camp.Workload.InputPort, sim.Exchange(outs)...)
			}
			iterations++
			if term.MaxIterations > 0 && iterations >= term.MaxIterations {
				return done()
			}
			if err := cpu.ResumeIteration(); err != nil {
				return nil, err
			}
		case thor.StatusHalted:
			return done()
		case thor.StatusDetected:
			return nil, fmt.Errorf("preinject: reference run detected an error: %+v", cpu.Detection())
		default:
			return nil, fmt.Errorf("preinject: unexpected status %v", cpu.Status())
		}
	}
	return done()
}

func (a *Analysis) initFields() {
	for r := 0; r < thor.NumRegs; r++ {
		f, err := thor.ScanFieldByName(fmt.Sprintf("cpu.r%d", r))
		if err != nil {
			return
		}
		a.regFields[r] = f
	}
	a.haveFields = true
}

// LiveAt reports whether register reg holds live data at the given cycle:
// its next access strictly after cycle is a read. Registers never accessed
// again are dead.
func (a *Analysis) LiveAt(reg int, cycle uint64) bool {
	if reg < 0 || reg >= thor.NumRegs {
		return false
	}
	b := a.uses.Boundaries
	next := sort.Search(len(b), func(i int) bool { return b[i] > cycle })
	return a.uses.Next(a.regFields[reg].Offset, next) == thor.AccessRead
}

// BitLive maps an internal-scan-chain bit offset to liveness at a cycle.
// Bits outside the register file (PC, flags, cache arrays) are unknown:
// the analysis keeps them (known=false, live=true) rather than wrongly
// skipping them.
func (a *Analysis) BitLive(bit int, cycle uint64) (live, known bool) {
	if !a.haveFields {
		return true, false
	}
	for r := 0; r < thor.NumRegs; r++ {
		f := a.regFields[r]
		if bit >= f.Offset && bit < f.End() {
			return a.LiveAt(r, cycle), true
		}
	}
	return true, false
}

// FaultLive reports whether a fault at the given injection cycle touches
// at least one live-or-unknown bit. Faults entirely within dead registers
// are guaranteed to be overwritten.
func (a *Analysis) FaultLive(f faultmodel.Fault, cycle uint64) bool {
	for _, b := range f.Bits {
		if live, _ := a.BitLive(b, cycle); live {
			return true
		}
	}
	return false
}

// Filter adapts the analysis to the campaign runner's injection filter:
// cycle-triggered injections into dead registers are skipped. Non-cycle
// triggers have unknown injection times and are kept.
func (a *Analysis) Filter() func(f faultmodel.Fault, trig trigger.Spec) bool {
	return func(f faultmodel.Fault, trig trigger.Spec) bool {
		if trig.Kind != "cycle" {
			return true
		}
		return a.FaultLive(f, trig.Cycle)
	}
}

// LiveFraction estimates the fraction of (register-bit, cycle) pairs that
// are live, sampling the register space at the given cycle resolution.
// It quantifies how much work pre-injection analysis saves.
func (a *Analysis) LiveFraction(step uint64) float64 {
	if step == 0 || a.EndCycle == 0 {
		return 0
	}
	live, total := 0, 0
	for c := uint64(0); c < a.EndCycle; c += step {
		for r := 0; r < thor.NumRegs; r++ {
			total++
			if a.LiveAt(r, c) {
				live++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(live) / float64(total)
}
