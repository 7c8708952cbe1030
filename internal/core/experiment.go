package core

import (
	"fmt"
	"math/rand"

	"goofi/internal/bitvec"
	"goofi/internal/campaign"
	"goofi/internal/faultmodel"
	"goofi/internal/trigger"
)

// Experiment is the context shared by the abstract methods during one
// fault injection experiment. The algorithms (Fig 2) create one per
// experiment; the paper's argument-less Java methods communicated through
// instance state, which Go renders as this explicit context.
type Experiment struct {
	// Campaign is the campaign definition driving the experiment.
	Campaign *campaign.Campaign
	// Seq is the experiment index within the campaign; -1 marks the
	// fault-free reference run.
	Seq int
	// Name is the unique experiment name (LoggedSystemState key).
	Name string
	// Fault is the fault to inject; nil for the reference run.
	Fault *faultmodel.Fault
	// Trigger is the injection-time trigger spec for this experiment
	// (per-experiment when the campaign draws random injection times).
	Trigger trigger.Spec
	// RNG is the experiment's seeded random source; targets and fault
	// models must draw randomness only from it, keeping runs replayable.
	RNG *rand.Rand

	// Reference is the campaign's reference run's result; nil in the
	// reference run itself and in a rerun. Where an experiment observes
	// what the reference did, a target may put the reference's slices and
	// maps in Result instead of copies of its own: a row that shares them
	// is the row a copy makes (campaign.Aliased). Nothing may write
	// through them.
	Reference *Result

	// ScanVector is the scan chain contents between ReadScanChain and
	// WriteScanChain.
	ScanVector *bitvec.Vector
	// InjectionCycle records when the injection point was reached
	// (set by the target in WaitForBreakpoint).
	InjectionCycle uint64
	// Injected reports whether InjectFault actually applied a fault.
	Injected bool

	// Forwarded reports that the target restored a recorded checkpoint
	// instead of cold-starting, skipping ForwardedFrom cycles of the
	// fault-free prefix. These are runtime statistics only; the logged
	// experiment record is byte-identical to a cold run's.
	Forwarded     bool
	ForwardedFrom uint64
	// Converged reports that the run's board state came back to the
	// reference run's at an iteration boundary, at cycle ConvergedAt, up to
	// a constant shift of its counters, and the target ended it there on
	// the reference's end state instead of emulating the rest. Runtime
	// statistics too: the record is the fully emulated run's.
	Converged   bool
	ConvergedAt uint64
	// SteadyAt is the cycle of the iteration boundary where the run's
	// board state repeated its state one iteration earlier, up to a shift
	// of its counters, and the target moved it straight to its last
	// iteration; SteadyCycles is how many cycles that skipped (0: no
	// skip). Runtime statistics as well: the record is the fully emulated
	// run's.
	SteadyAt, SteadyCycles uint64

	// Result accumulates the experiment's observations.
	Result Result

	// DetailSink, when non-nil, receives a state vector after every
	// machine instruction (detail mode, paper §3.3). Targets call it
	// from their execution loop.
	DetailSink func(step int, sv *campaign.StateVector) error

	// StepTrace records the abstract-method sequence executed by the
	// algorithm, for verification and debugging.
	StepTrace []string

	// scratch carries target-private state between abstract methods
	// (e.g. the assembled workload image between LoadWorkload and
	// WriteMemory).
	scratch map[string]interface{}

	// fault is what Fault points to: the experiment's own copy of its
	// plan entry's fault. src is RNG's source.
	fault faultmodel.Fault
	src   lazySource
}

// IsReference reports whether this is the campaign's fault-free
// reference run.
func (ex *Experiment) IsReference() bool { return ex.Seq < 0 }

// PutScratch stores target-private state under a key.
func (ex *Experiment) PutScratch(key string, v interface{}) {
	if ex.scratch == nil {
		ex.scratch = make(map[string]interface{})
	}
	ex.scratch[key] = v
}

// Scratch retrieves target-private state.
func (ex *Experiment) Scratch(key string) (interface{}, bool) {
	v, ok := ex.scratch[key]
	return v, ok
}

// maxAlgorithmSteps is the length of the longest built-in algorithm,
// SCIFI's eleven abstract methods: the step trace is sized for it once
// instead of growing there through five reallocations per experiment.
const maxAlgorithmSteps = 11

// step records one abstract-method invocation.
func (ex *Experiment) step(name string) {
	if ex.StepTrace == nil {
		ex.StepTrace = make([]string, 0, maxAlgorithmSteps)
	}
	ex.StepTrace = append(ex.StepTrace, name)
}

// Result holds everything observed from one experiment.
type Result struct {
	// Outcome summarises how the run ended.
	Outcome campaign.Outcome
	// FinalScan is the scan chain read after termination.
	FinalScan *bitvec.Vector
	// Memory maps result symbols to their observed bytes.
	Memory map[string][]byte
	// Outputs maps output ports to the values the workload emitted.
	Outputs map[uint16][]uint32
}

// StateVector packages the result as a LoggedSystemState stateVector.
func (r *Result) StateVector() (*campaign.StateVector, error) {
	sv := &campaign.StateVector{Memory: r.Memory, Outputs: r.Outputs}
	if r.FinalScan != nil {
		b, err := r.FinalScan.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("core: marshal final scan state: %w", err)
		}
		sv.Scan = b
	}
	return sv, nil
}

// Record builds the LoggedSystemState row for the experiment.
func (ex *Experiment) Record() (*campaign.ExperimentRecord, error) {
	sv, err := ex.Result.StateVector()
	if err != nil {
		return nil, err
	}
	rec := &campaign.ExperimentRecord{}
	ex.fillRecord(rec)
	rec.State = *sv
	return rec, nil
}

// fillRecord sets everything of the experiment's row but its state.
func (ex *Experiment) fillRecord(rec *campaign.ExperimentRecord) {
	*rec = campaign.ExperimentRecord{
		Name:     ex.Name,
		Campaign: ex.Campaign.Name,
		Data: campaign.ExperimentData{
			Seq:            ex.Seq,
			Trigger:        ex.Trigger,
			InjectionCycle: ex.InjectionCycle,
			Injected:       ex.Injected,
			Outcome:        ex.Result.Outcome,
		},
		Step: -1,
	}
	if ex.Fault != nil {
		rec.Data.Fault = *ex.Fault
	}
}
