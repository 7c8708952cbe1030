// Package campaign defines GOOFI's persistent data model: the target
// system configuration produced in the configuration phase (paper Fig 5),
// the campaign definition produced in the set-up phase (Fig 6), and the
// logged experiment records — mirroring the three database tables
// TargetSystemData, CampaignData and LoggedSystemState with their foreign
// keys (Fig 4).
package campaign

import (
	"bytes"
	"fmt"
	"strconv"

	"goofi/internal/faultmodel"
	"goofi/internal/scanchain"
	"goofi/internal/trigger"
)

// TargetSystemData describes one configured target system: its test card
// and the scan-chain maps entered in the configuration phase.
type TargetSystemData struct {
	// Name identifies the target system (primary key).
	Name string `json:"name"`
	// TestCardName identifies the host test card driving the target.
	TestCardName string `json:"testCardName"`
	// Chains are the configured scan chains with their named locations.
	Chains []scanchain.Map `json:"chains"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
}

// Validate checks the target system data.
func (t *TargetSystemData) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("campaign: target system needs a name")
	}
	if len(t.Chains) == 0 {
		return fmt.Errorf("campaign: target system %q has no scan chains", t.Name)
	}
	seen := make(map[string]bool)
	for i := range t.Chains {
		m := &t.Chains[i]
		if seen[m.Chain] {
			return fmt.Errorf("campaign: duplicate chain %q in target %q", m.Chain, t.Name)
		}
		seen[m.Chain] = true
		if err := m.Validate(); err != nil {
			return fmt.Errorf("campaign: target %q: %w", t.Name, err)
		}
	}
	return nil
}

// Chain returns the named scan-chain map.
func (t *TargetSystemData) Chain(name string) (*scanchain.Map, error) {
	for i := range t.Chains {
		if t.Chains[i].Chain == name {
			return &t.Chains[i], nil
		}
	}
	return nil, fmt.Errorf("campaign: target %q has no chain %q", t.Name, name)
}

// Termination gives the conditions ending one experiment: "a time-out
// value has been reached, an error has been detected or the execution of
// the workload ends, whichever comes first" (paper §3.2), plus a maximum
// iteration count for infinite-loop workloads.
type Termination struct {
	// TimeoutCycles ends the experiment after this many cycles.
	TimeoutCycles uint64 `json:"timeoutCycles"`
	// MaxIterations ends an infinite-loop workload after this many
	// completed iterations (0 = run to HALT).
	MaxIterations int `json:"maxIterations,omitempty"`
}

// Validate checks the termination spec.
func (t *Termination) Validate() error {
	if t.TimeoutCycles == 0 {
		return fmt.Errorf("campaign: termination needs a timeout")
	}
	return nil
}

// WorkloadSpec names the target system workload and how to observe it.
type WorkloadSpec struct {
	// Name identifies the workload.
	Name string `json:"name"`
	// Source is THOR-S assembly, assembled at load time. Storing source
	// keeps the campaign data portable across hosts.
	Source string `json:"source"`
	// InputPort and OutputPort carry environment-simulator data
	// (paper §3.2: memory locations / ports holding input and output).
	InputPort  uint16 `json:"inputPort"`
	OutputPort uint16 `json:"outputPort"`
	// ResultSymbols are data symbols whose memory is read back after the
	// experiment (the readMemory building block).
	ResultSymbols []string `json:"resultSymbols,omitempty"`
	// ResultWords is the number of words read per result symbol
	// (default 1).
	ResultWords int `json:"resultWords,omitempty"`
	// DeadlineCycles is the per-experiment deadline for timeliness
	// checks; 0 disables the check.
	DeadlineCycles uint64 `json:"deadlineCycles,omitempty"`
	// OutputTail restricts the escaped-error output comparison to the
	// last N output values (0 = compare everything exactly). Control
	// workloads use it so that transient deviations the controller
	// recovers from are not counted as critical failures.
	OutputTail int `json:"outputTail,omitempty"`
	// OutputTolerance is the per-value absolute tolerance (interpreted
	// as int32) for the output comparison.
	OutputTolerance uint32 `json:"outputTolerance,omitempty"`
	// ResultTolerance is the per-word absolute tolerance for result
	// memory comparison (words are big-endian int32).
	ResultTolerance uint32 `json:"resultTolerance,omitempty"`
	// RecoveryHandlers maps trap codes to handler symbols, enabling
	// best-effort recovery from executable assertions.
	RecoveryHandlers map[uint16]string `json:"recoveryHandlers,omitempty"`
}

// EnvSimSpec selects a registered environment simulator and its
// parameters (paper §3.2: "a user provided environment simulator").
type EnvSimSpec struct {
	Name   string             `json:"name"`
	Params map[string]float64 `json:"params,omitempty"`
}

// LogMode selects how much system state is logged (paper §3.3).
type LogMode string

// Logging modes.
const (
	// LogNormal logs the system state only when the termination
	// condition is fulfilled.
	LogNormal LogMode = "normal"
	// LogDetail logs the system state after every machine instruction,
	// producing an execution trace for error-propagation analysis.
	LogDetail LogMode = "detail"
)

// Campaign is one fault injection campaign definition (the CampaignData
// table row).
type Campaign struct {
	// Name identifies the campaign (primary key).
	Name string `json:"name"`
	// TargetName references the TargetSystemData row (foreign key).
	TargetName string `json:"targetName"`
	// ChainName selects which scan chain faults are injected into.
	ChainName string `json:"chainName"`
	// Locations are names or dotted prefixes selecting fault injection
	// locations from the chain's hierarchical list (Fig 6).
	Locations []string `json:"locations"`
	// Observe selects the locations logged in system state vectors
	// (empty = whole chain).
	Observe []string `json:"observe,omitempty"`
	// FaultModel is the fault model selection.
	FaultModel faultmodel.Spec `json:"faultModel"`
	// Trigger gives the injection time. When RandomWindow is set the
	// trigger kind must be "cycle" and each experiment draws a uniform
	// cycle in [RandomWindow[0], RandomWindow[1]).
	Trigger      trigger.Spec `json:"trigger"`
	RandomWindow [2]uint64    `json:"randomWindow,omitempty"`
	// NumExperiments is the number of faults to inject.
	NumExperiments int `json:"numExperiments"`
	// Seed drives all campaign randomness; same seed, same campaign.
	Seed int64 `json:"seed"`
	// Termination ends each experiment.
	Termination Termination `json:"termination"`
	// Workload is the target program.
	Workload WorkloadSpec `json:"workload"`
	// EnvSim optionally closes the loop around the workload.
	EnvSim *EnvSimSpec `json:"envSim,omitempty"`
	// LogMode selects normal or detail logging.
	LogMode LogMode `json:"logMode"`
}

// Validate checks the campaign definition.
func (c *Campaign) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("campaign: campaign needs a name")
	}
	if c.TargetName == "" {
		return fmt.Errorf("campaign %q: needs a target system", c.Name)
	}
	if len(c.Locations) == 0 {
		return fmt.Errorf("campaign %q: no fault injection locations selected", c.Name)
	}
	if err := c.FaultModel.Validate(); err != nil {
		return fmt.Errorf("campaign %q: %w", c.Name, err)
	}
	if c.NumExperiments <= 0 {
		return fmt.Errorf("campaign %q: needs a positive number of experiments", c.Name)
	}
	if err := c.Termination.Validate(); err != nil {
		return fmt.Errorf("campaign %q: %w", c.Name, err)
	}
	if c.Workload.Source == "" {
		return fmt.Errorf("campaign %q: workload has no source", c.Name)
	}
	if c.RandomWindow[1] > 0 {
		if c.Trigger.Kind != "cycle" {
			return fmt.Errorf("campaign %q: random time window requires a cycle trigger", c.Name)
		}
		if c.RandomWindow[1] <= c.RandomWindow[0] {
			return fmt.Errorf("campaign %q: empty random time window", c.Name)
		}
	} else if _, err := c.Trigger.Build(); err != nil {
		return fmt.Errorf("campaign %q: %w", c.Name, err)
	}
	switch c.LogMode {
	case LogNormal, LogDetail:
	case "":
		return fmt.Errorf("campaign %q: log mode not set", c.Name)
	default:
		return fmt.Errorf("campaign %q: unknown log mode %q", c.Name, c.LogMode)
	}
	return nil
}

// OutcomeStatus summarises how an experiment ended.
type OutcomeStatus string

// Experiment end states.
const (
	// OutcomeCompleted means the workload ran to normal termination.
	OutcomeCompleted OutcomeStatus = "completed"
	// OutcomeDetected means an error detection mechanism fired.
	OutcomeDetected OutcomeStatus = "detected"
	// OutcomeTimeout means the time-out termination condition fired.
	OutcomeTimeout OutcomeStatus = "timeout"
	// OutcomeInvalidRun means the experiment could not be completed
	// because the test harness itself failed (board wedge, scan
	// corruption, host fault) even after the configured retries. The
	// record preserves the planned injection so the experiment can be
	// re-attempted, but carries no usable system state; analysis excludes
	// invalid runs from all effectiveness ratios (the paper's discarded
	// experiments).
	OutcomeInvalidRun OutcomeStatus = "invalid-run"

	// The live-process (proctarget) outcome taxonomy, after ZOFI: the
	// victim is a real OS process, so termination is classified from its
	// exit status and output rather than from simulated detectors.
	//
	// OutcomeMasked: the victim exited 0 and its stdout matched the
	// fault-free reference capture byte for byte — the fault had no
	// externally visible effect.
	OutcomeMasked OutcomeStatus = "masked"
	// OutcomeSDC: the victim exited 0 but produced different output —
	// silent data corruption.
	OutcomeSDC OutcomeStatus = "sdc"
	// OutcomeCrash: the victim died on a signal or exited non-zero.
	OutcomeCrash OutcomeStatus = "crash"
	// OutcomeHang: the victim exceeded its wall-clock budget and was
	// killed by the watchdog.
	OutcomeHang OutcomeStatus = "hang"
)

// Outcome is the recorded end state of one experiment.
type Outcome struct {
	Status OutcomeStatus `json:"status"`
	// Mechanism names the EDM for detected outcomes.
	Mechanism string `json:"mechanism,omitempty"`
	// DetectionCycle is when the EDM fired.
	DetectionCycle uint64 `json:"detectionCycle,omitempty"`
	// Cycles is the total cycle count at termination.
	Cycles uint64 `json:"cycles"`
	// Iterations is the number of completed workload iterations.
	Iterations int `json:"iterations,omitempty"`
	// Recovered counts assertion failures that were recovered from.
	Recovered int `json:"recovered,omitempty"`
	// Attempts is how many times the experiment was executed before this
	// outcome was recorded (0 means one attempt and is omitted; invalid
	// runs record the full attempt count).
	Attempts int `json:"attempts,omitempty"`
	// HarnessError describes the final harness failure of an invalid run.
	HarnessError string `json:"harnessError,omitempty"`
}

// ExperimentData is the experimentData attribute of a LoggedSystemState
// row: everything about the injection and how the run ended.
type ExperimentData struct {
	Seq            int              `json:"seq"`
	Fault          faultmodel.Fault `json:"fault"`
	LocationNames  []string         `json:"locationNames,omitempty"`
	Trigger        trigger.Spec     `json:"trigger"`
	InjectionCycle uint64           `json:"injectionCycle,omitempty"`
	Injected       bool             `json:"injected"`
	Outcome        Outcome          `json:"outcome"`
}

// StateVector is the logged system state: the observable scan-chain
// contents, the observed result memory, and the workload outputs. It is
// stored as the stateVector BLOB.
type StateVector struct {
	Scan    []byte              `json:"scan,omitempty"` // bitvec marshaled
	Memory  map[string][]byte   `json:"memory,omitempty"`
	Outputs map[uint16][]uint32 `json:"outputs,omitempty"`
}

// Encode serialises the state vector in the absolute form. The output is
// the json.Marshal encoding, produced by the hand-rolled appender in
// codec.go.
func (s *StateVector) Encode() ([]byte, error) {
	return s.appendJSON(make([]byte, 0, 256)), nil
}

// DecodeStateVector parses a state vector in the absolute form: the
// appender's own output by the reflection-free parser in decode.go,
// anything else by encoding/json, with the same result either way.
func DecodeStateVector(b []byte) (*StateVector, error) {
	var s StateVector
	if err := decodeStateVector(b, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// ExperimentRecord is one LoggedSystemState row.
type ExperimentRecord struct {
	// Name uniquely identifies the experiment ("experimentName").
	Name string
	// Parent tracks re-runs of earlier experiments ("parentExperiment",
	// paper §2.3): a detail-mode re-run of experiment E1 records E1 here
	// so E1's campaign data can be tracked.
	Parent string
	// Campaign references the CampaignData row.
	Campaign string
	// Data is the experiment metadata.
	Data ExperimentData
	// State is the logged state vector.
	State StateVector
	// Step is -1 for end-of-experiment records; detail-mode trace
	// records use the instruction index.
	Step int

	// Ref is neither stored nor marshaled. On a record handed to a sink it
	// is the reference state EncodeRow may store State relative to,
	// attached by the runner to the end records of a deterministic target;
	// nil keeps the row absolute. On a record read back it is set when the
	// row was stored relative: State.Memory and State.Outputs then share
	// their unchanged values with Ref.State, and ScanDiff lists the bit
	// positions (8*byte + bit, ascending) at which the logged scan differs
	// from Ref.State.Scan. Every read but EachExperiment applies them to a
	// copy in State.Scan; on a record EachExperiment yields, State.Scan is
	// still Ref.State.Scan itself, and ScanState spells the scan out.
	Ref      *Reference `json:"-"`
	ScanDiff []int      `json:"-"`
	// scanShared marks a record read back whose State.Scan is still
	// Ref.State.Scan, the ScanDiff bits not applied.
	scanShared bool
	// FromRef marks a record handed to a sink that says its state instead
	// of holding it — an experiment whose row is synthesized from the
	// reference run (core/prune.go): State is empty and means nothing, the
	// state is Ref.State with the ScanDiff bits of Scan flipped, and
	// EncodeRow stores that list as it stands. WholeState spells it out.
	FromRef bool `json:"-"`
	// diffScan marks a record handed to a sink that says its scan state
	// alone that way (ScanFromRef).
	diffScan bool
	// owned marks a record a BatchingSink took with LogOwned: once stored,
	// NewRecord hands it out again.
	owned bool
}

// WholeState returns the state the record logs: State, or, for a record
// that says its state as a difference from the reference (FromRef), that
// difference applied — Memory and Outputs shared with the reference's, as
// on a relative row read back — and for one that says its scan state alone
// that way, State with that scan state.
func (r *ExperimentRecord) WholeState() (*StateVector, error) {
	if !r.scanFromRef() {
		return &r.State, nil
	}
	if err := r.checkFromRef(); err != nil {
		return nil, err
	}
	return r.fromRefState(), nil
}

// ScanFromRef makes a record to be handed to a sink say its scan state the
// way a FromRef record does, and its memory and outputs in State: the scan
// state is Ref.State.Scan with the bits at the positions diff lists
// (ascending, in its byte form) flipped, and EncodeRow stores the list as it
// stands. An emulated experiment's end row whose scan state differs from
// the reference's in a few bits is said that way (core's endRecord). A
// State.Scan set afterwards says the scan state again.
func (r *ExperimentRecord) ScanFromRef(diff []int) {
	r.State.Scan, r.ScanDiff, r.diffScan = nil, diff, true
}

// scanFromRef reports whether a record handed to a sink says its scan
// state as the ScanDiff bits of the reference's (FromRef, ScanFromRef).
func (r *ExperimentRecord) scanFromRef() bool {
	return r.FromRef || r.diffScan && r.State.Scan == nil
}

// fromRefState is the state a record that says its scan state as a
// difference logs.
func (r *ExperimentRecord) fromRefState() *StateVector {
	sv := r.State
	if r.FromRef {
		sv = r.Ref.State
	}
	sv.Scan = flipBits(r.Ref.State.Scan, r.ScanDiff)
	return &sv
}

// ScanState returns the scan state the record logs: State.Scan, or, on a
// record EachExperiment yields from a row stored relative, the reference's
// scan with the ScanDiff bits flipped, in a copy of its own.
func (r *ExperimentRecord) ScanState() []byte {
	if r.scanShared {
		return flipBits(r.State.Scan, r.ScanDiff)
	}
	return r.State.Scan
}

// applyScanDiff gives a record EachExperiment yields the scan every other
// read returns: a copy of its own with the ScanDiff bits applied.
func (r *ExperimentRecord) applyScanDiff() {
	r.State.Scan, r.scanShared = r.ScanState(), false
}

// flipBits returns scan with the bits at the positions diff lists flipped:
// scan itself when there are none, a copy otherwise.
func flipBits(scan []byte, diff []int) []byte {
	if len(diff) == 0 {
		return scan
	}
	scan = bytes.Clone(scan)
	for _, pos := range diff {
		scan[pos>>3] ^= 1 << (pos & 7)
	}
	return scan
}

// endOfExperiment reports whether the record is the end row of an
// experiment that ran: not a detail-mode step, not the reference run, not
// an invalid run. Those are the rows whose state may be stored relative to
// the reference.
func (r *ExperimentRecord) endOfExperiment() bool {
	return r.Step == -1 && r.Data.Seq >= 0 && r.Data.Outcome.Status != OutcomeInvalidRun
}

// checkFromRef refuses a record that says its scan state as a difference
// (scanFromRef) and cannot be stored relative to its reference, the only
// way it can say it: no reference, not an experiment's end row, or a
// ScanDiff the relative form cannot hold.
func (r *ExperimentRecord) checkFromRef() error {
	if r.Ref == nil || !r.endOfExperiment() {
		return fmt.Errorf("campaign: experiment %q: only an experiment's end row can give its state as a difference, and only from a reference", r.Name)
	}
	if err := r.Ref.checkDiff(r.ScanDiff); err != nil {
		return fmt.Errorf("campaign: experiment %q: %w", r.Name, err)
	}
	return nil
}

// IsReference reports whether the record is the campaign's fault-free
// reference run.
func (r *ExperimentRecord) IsReference() bool { return r.Data.Seq < 0 }

// ReferenceName returns the canonical experiment name of a campaign's
// reference run.
func ReferenceName(campaignName string) string { return campaignName + "/reference" }

// ExperimentName returns the canonical name of the i-th experiment: what
// fmt.Sprintf("%s/exp%05d", campaignName, i) reads.
func ExperimentName(campaignName string, i int) string {
	if i < 0 {
		return fmt.Sprintf("%s/exp%05d", campaignName, i)
	}
	var arr [64]byte
	return string(AppendExperimentName(arr[:0], campaignName, i))
}

// AppendExperimentName appends ExperimentName(campaignName, i), i >= 0, to
// b, by hand: a run names every experiment, many into one buffer.
func AppendExperimentName(b []byte, campaignName string, i int) []byte {
	b = append(append(b, campaignName...), "/exp"...)
	for lim := 10000; lim > i && lim > 1; lim /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(i), 10)
}
