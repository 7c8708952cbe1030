package core

import (
	"fmt"
	"slices"
)

// Algorithm is one fault injection algorithm: a fixed sequence of the
// abstract target-system methods. The paper defines one per technique in
// the FaultInjectionAlgorithms class (Fig 2); adding a technique to GOOFI
// means adding a listing here and implementing the methods it uses in the
// target (paper §2.1).
type Algorithm struct {
	// Name identifies the technique ("scifi", "swifi-preruntime", ...).
	Name string
	// Run executes one experiment against the target.
	Run func(ts TargetSystem, ex *Experiment) error
	// steps is the listing Run walks; what else depends on a technique's
	// shape (forwardPlan, newPruner) asks it instead of the technique's
	// name.
	steps []step
	// prunable: the listing injects through the scan chain it reads last,
	// so an experiment's row is one the pruner can synthesize from the
	// reference run's (prune.go) — SCIFI's shape.
	prunable bool
}

// step is one line of a listing: an abstract method under the name the
// step trace and the error wrapping give it. A faulty step is skipped by
// the reference run, which logs the fault-free system state
// (makeReferenceRun).
type step struct {
	name   string
	method func(TargetSystem, *Experiment) error
	faulty bool
}

// The building blocks, reused across techniques (paper §2.1).
var (
	initTestCard       = step{name: "initTestCard", method: TargetSystem.InitTestCard}
	loadWorkload       = step{name: "loadWorkload", method: TargetSystem.LoadWorkload}
	writeMemory        = step{name: "writeMemory", method: TargetSystem.WriteMemory}
	runWorkload        = step{name: "runWorkload", method: TargetSystem.RunWorkload}
	waitForBreakpoint  = step{name: "waitForBreakpoint", method: TargetSystem.WaitForBreakpoint}
	readScanChain      = step{name: "readScanChain", method: TargetSystem.ReadScanChain}
	injectFault        = step{name: "injectFault", method: TargetSystem.InjectFault}
	writeScanChain     = step{name: "writeScanChain", method: TargetSystem.WriteScanChain}
	waitForTermination = step{name: "waitForTermination", method: TargetSystem.WaitForTermination}
	readMemory         = step{name: "readMemory", method: TargetSystem.ReadMemory}
)

// faulty marks a step as part of the injection: not run by the reference.
func faulty(s step) step {
	s.faulty = true
	return s
}

// listing builds the algorithm that runs steps in order, recording each in
// the step trace and wrapping its error in its name. A listing that ends by
// reading the scan chain logs that vector as the experiment's final scan
// state, and one that also injects by writing the chain is prunable.
func listing(name string, steps ...step) Algorithm {
	finalScan := steps[len(steps)-1].name == readScanChain.name
	prunable := finalScan && slices.ContainsFunc(steps, func(s step) bool {
		return s.faulty && s.name == writeScanChain.name
	})
	return Algorithm{Name: name, steps: steps, prunable: prunable, Run: func(ts TargetSystem, ex *Experiment) error {
		for _, s := range steps {
			if s.faulty && ex.IsReference() {
				continue
			}
			ex.step(s.name)
			if err := s.method(ts, ex); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
		if finalScan {
			ex.Result.FinalScan = ex.ScanVector
		}
		return nil
	}}
}

// hasStep reports whether the algorithm's listing contains the named step.
func (a Algorithm) hasStep(name string) bool {
	for _, s := range a.steps {
		if s.name == name {
			return true
		}
	}
	return false
}

// SCIFI is the scan-chain implemented fault injection algorithm, step for
// step the faultInjectorSCIFI method of paper Fig 2.
var SCIFI = listing("scifi",
	initTestCard, loadWorkload, writeMemory, runWorkload,
	faulty(waitForBreakpoint), faulty(readScanChain), faulty(injectFault), faulty(writeScanChain),
	waitForTermination, readMemory, readScanChain)

// PreRuntimeSWIFI is pre-runtime software implemented fault injection:
// "faults are injected into the program and data areas of the target
// system before it starts to execute" (paper §1). The injection happens
// between loadWorkload and writeMemory — the workload image is mutated on
// the host and then downloaded. Only injectFault differs in meaning.
var PreRuntimeSWIFI = listing("swifi-preruntime",
	initTestCard, loadWorkload, faulty(injectFault), writeMemory, runWorkload,
	waitForTermination, readMemory)

// RuntimeSWIFI is runtime software implemented fault injection (a paper §4
// extension): the workload runs to the injection point, is stopped, the
// fault is applied through software (memory mutation), and execution
// resumes. It reuses the SCIFI structure with memory-level injection.
var RuntimeSWIFI = listing("swifi-runtime",
	initTestCard, loadWorkload, writeMemory, runWorkload,
	faulty(waitForBreakpoint), faulty(injectFault),
	waitForTermination, readMemory)

// PinLevel is pin-level fault injection (paper §2.1 names it as a
// composable technique): the fault is forced onto the circuit pins via
// the boundary-scan register while the workload runs.
var PinLevel = listing("pin-level",
	initTestCard, loadWorkload, writeMemory, runWorkload,
	faulty(waitForBreakpoint), faulty(readScanChain), faulty(injectFault), faulty(writeScanChain),
	waitForTermination, readMemory)

// Algorithms lists the built-in fault injection algorithms by name.
func Algorithms() map[string]Algorithm {
	return map[string]Algorithm{
		SCIFI.Name:           SCIFI,
		PreRuntimeSWIFI.Name: PreRuntimeSWIFI,
		RuntimeSWIFI.Name:    RuntimeSWIFI,
		PinLevel.Name:        PinLevel,
	}
}
