// Package analysis implements GOOFI's analysis phase (paper §3.4): it
// classifies each logged fault injection experiment against the campaign's
// fault-free reference run into the paper's taxonomy —
//
//	Effective errors:
//	  Detected errors    — caught by an error detection mechanism,
//	                       classified per mechanism
//	  Escaped errors     — failures that escaped the EDMs: incorrect
//	                       results or timeliness violations
//	Non-effective errors:
//	  Latent errors      — state differs from the reference but no
//	                       failure and no detection was observed
//	  Overwritten errors — no observable difference at all
//
// and derives dependability measures (error detection coverage with
// binomial confidence intervals). It also generates and runs the SQL
// analysis queries over the LoggedSystemState-derived results table — the
// paper's §4 "automatic generation of software for analysing the
// LoggedSystemState table".
package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"goofi/internal/bitvec"
	"goofi/internal/campaign"
	"goofi/internal/scanchain"
)

// Class is one leaf of the paper's outcome taxonomy.
type Class string

// Outcome classes.
const (
	// ClassDetected is an effective error caught by an EDM.
	ClassDetected Class = "detected"
	// ClassEscaped is an effective error that escaped the EDMs,
	// causing an incorrect result or a timeliness violation.
	ClassEscaped Class = "escaped"
	// ClassLatent is a non-effective error still present in system
	// state at termination.
	ClassLatent Class = "latent"
	// ClassOverwritten is a non-effective error that left no trace.
	ClassOverwritten Class = "overwritten"
	// ClassNotInjected marks experiments whose injection point was
	// never reached (the workload ended first).
	ClassNotInjected Class = "not-injected"
	// ClassInvalidRun marks experiments the test harness could not
	// complete even after retries (board wedge, scan corruption). They
	// carry no usable system state and are excluded from every
	// effectiveness ratio — the paper's discarded experiments.
	ClassInvalidRun Class = "invalid-run"
)

// AllClasses lists the classes in report order.
func AllClasses() []Class {
	return []Class{ClassDetected, ClassEscaped, ClassLatent, ClassOverwritten,
		ClassNotInjected, ClassInvalidRun}
}

// Effective reports whether the class counts as an effective error.
func (c Class) Effective() bool { return c == ClassDetected || c == ClassEscaped }

// Details is the full classification of one experiment.
type Details struct {
	Experiment    string
	Class         Class
	Mechanism     string // for detected errors
	WrongOutput   bool   // outputs differ from reference
	WrongMemory   bool   // result memory differs from reference
	Timeliness    bool   // deadline or timeout violated
	StateDiffBits int    // differing observed scan bits at termination
	Cycles        uint64
	Latency       uint64 // injection-to-detection cycles, detected only
	Recovered     int    // assertion recoveries during the run
}

// FailSilence reports whether the experiment is a fail-silence violation:
// the system delivered wrong values while appearing healthy (completed on
// time, nothing detected) — the paper's §2.3 motivating scenario for
// detail-mode re-runs.
func (d *Details) FailSilence() bool {
	return d.Class == ClassEscaped && (d.WrongOutput || d.WrongMemory) && !d.Timeliness
}

// Interval is a proportion with its 95% Wilson score confidence interval.
type Interval struct {
	P      float64
	Lo, Hi float64
	N      int // sample size
}

// Wilson computes the 95% Wilson score interval for k successes of n.
func Wilson(k, n int) Interval {
	if n == 0 {
		return Interval{}
	}
	const z = 1.959964 // 97.5th percentile of the standard normal
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	centre := (p + z*z/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	return Interval{P: p, Lo: math.Max(0, centre-half), Hi: math.Min(1, centre+half), N: n}
}

// String renders the interval as "p [lo, hi] (n)".
func (iv Interval) String() string {
	return fmt.Sprintf("%.3f [%.3f, %.3f] (n=%d)", iv.P, iv.Lo, iv.Hi, iv.N)
}

// Report is the campaign-level analysis result.
type Report struct {
	Campaign   string
	Total      int
	Injected   int
	Counts     map[Class]int
	Mechanisms map[string]int
	// EscapedValue / EscapedTiming split the escaped class.
	EscapedValue  int
	EscapedTiming int
	// FailSilence counts escaped errors that are fail-silence
	// violations (wrong values delivered on time, nothing detected).
	FailSilence int
	// Coverage is the error detection coverage: detected / effective.
	Coverage Interval
	// EffectiveRate is effective / injected.
	EffectiveRate Interval
	// MeanDetectionLatency is the mean injection-to-detection time in
	// cycles over detected experiments.
	MeanDetectionLatency float64
	// OutcomeClasses counts the process-boundary outcome classes of
	// live-process (proc) experiments: masked, sdc, crash, hang. Empty
	// for scan-chain targets.
	OutcomeClasses map[campaign.OutcomeStatus]int
	// Recovered is the total number of assertion recoveries.
	Recovered int
	// Details holds the per-experiment classifications.
	Details []Details
}

// Fraction returns a class's share of the relevant population: injected
// experiments for the four outcome classes, all experiments for the
// not-injected and invalid-run classes.
func (r *Report) Fraction(c Class) float64 {
	base := r.Injected
	if c == ClassNotInjected || c == ClassInvalidRun {
		base = r.Total
	}
	if base == 0 {
		return 0
	}
	return float64(r.Counts[c]) / float64(base)
}

// Analyzer classifies a campaign's experiments.
type Analyzer struct {
	store *campaign.Store
	camp  *campaign.Campaign
	tsd   *campaign.TargetSystemData

	// observe has a bit set for every scan cell that takes part in the
	// latent comparison.
	observe *bitvec.Vector
}

// reference is the fault-free run every experiment is compared with, its
// scan state unpacked once for the whole campaign.
type reference struct {
	rec  *campaign.ExperimentRecord
	scan bitvec.Vector
	// scanErr is what unpacking a malformed scan state failed with; the
	// first experiment whose classification needs the scan reports it.
	scanErr error
}

// New builds an analyzer for a stored campaign.
func New(store *campaign.Store, campaignName string) (*Analyzer, error) {
	camp, err := store.GetCampaign(campaignName)
	if err != nil {
		return nil, err
	}
	tsd, err := store.GetTargetSystem(camp.TargetName)
	if err != nil {
		return nil, err
	}
	a := &Analyzer{store: store, camp: camp, tsd: tsd}
	if err := a.resolveObserve(); err != nil {
		return nil, err
	}
	return a, nil
}

// resolveObserve determines which scan cells participate in the latent
// comparison: the campaign's observe list, or every writable location of
// the chain (read-only cells like cycle counters always differ between
// runs and are excluded unless explicitly selected).
func (a *Analyzer) resolveObserve() error {
	chainName := a.camp.ChainName
	var m *scanchain.Map
	var err error
	if chainName == "" {
		if len(a.tsd.Chains) == 0 {
			return fmt.Errorf("analysis: target %q has no chains", a.tsd.Name)
		}
		m = &a.tsd.Chains[0]
	} else if m, err = a.tsd.Chain(chainName); err != nil {
		return err
	}
	locs := m.Writable()
	if len(a.camp.Observe) > 0 {
		locs = m.Select(a.camp.Observe...)
	}
	a.observe = bitvec.New(m.Length)
	for _, l := range locs {
		for b := max(l.Offset, 0); b < min(l.End(), m.Length); b++ {
			a.observe.Set(b, true)
		}
	}
	return nil
}

// classify applies the taxonomy to one experiment.
func (a *Analyzer) classify(rec *campaign.ExperimentRecord, ref *reference) (Details, error) {
	d := Details{
		Experiment: rec.Name,
		Cycles:     rec.Data.Outcome.Cycles,
		Recovered:  rec.Data.Outcome.Recovered,
	}
	// Invalid runs are checked before the injected flag: a harness
	// failure aborts the experiment before injection, so Injected is
	// false, but the run must not be counted as a (valid) not-injected
	// experiment either.
	if rec.Data.Outcome.Status == campaign.OutcomeInvalidRun {
		d.Class = ClassInvalidRun
		return d, nil
	}
	if !rec.Data.Injected {
		d.Class = ClassNotInjected
		return d, nil
	}
	out := rec.Data.Outcome
	// Live-process targets classify outcomes at the process boundary
	// (ZOFI's taxonomy); map them onto the paper's classes directly —
	// there is no scan state to diff. A crash is a detected error (the
	// hardware/OS trap is the detection mechanism), a hang is a
	// timeliness violation, silent data corruption escaped, and a masked
	// fault left no observable trace.
	switch out.Status {
	case campaign.OutcomeMasked:
		d.Class = ClassOverwritten
		return d, nil
	case campaign.OutcomeSDC:
		d.Class = ClassEscaped
		d.WrongOutput = true
		return d, nil
	case campaign.OutcomeCrash:
		d.Class = ClassDetected
		d.Mechanism = out.Mechanism
		return d, nil
	case campaign.OutcomeHang:
		d.Class = ClassEscaped
		d.Timeliness = true
		return d, nil
	}
	if out.Status == campaign.OutcomeDetected {
		d.Class = ClassDetected
		d.Mechanism = out.Mechanism
		if out.DetectionCycle >= rec.Data.InjectionCycle {
			d.Latency = out.DetectionCycle - rec.Data.InjectionCycle
		}
		return d, nil
	}
	// Escaped? Wrong results or timeliness violation. Control workloads
	// can declare a tolerance and a tail window so transient deviations
	// the controller recovers from do not count as critical failures.
	wl := &a.camp.Workload
	d.WrongMemory = !memoryEqual(rec.State.Memory, ref.rec.State.Memory, wl.ResultTolerance)
	d.WrongOutput = !outputsEqual(rec.State.Outputs, ref.rec.State.Outputs, wl.OutputTail, wl.OutputTolerance)
	d.Timeliness = out.Status == campaign.OutcomeTimeout ||
		(a.camp.Workload.DeadlineCycles > 0 && out.Cycles > a.camp.Workload.DeadlineCycles)
	if d.WrongMemory || d.WrongOutput || d.Timeliness {
		d.Class = ClassEscaped
		return d, nil
	}
	// Latent? Any difference in the observed state vector.
	diff, err := a.scanDiff(rec, ref)
	if err != nil {
		return d, err
	}
	d.StateDiffBits = diff
	if diff > 0 {
		d.Class = ClassLatent
	} else {
		d.Class = ClassOverwritten
	}
	return d, nil
}

// scanDiff counts differing bits between the experiment's and the
// reference's final scan state, restricted to the observed cells. A row
// stored relative to this very reference scan brings the differing
// positions with it, and only those are looked at; any other is unpacked
// and compared whole — a relative row's scan with its differing bits
// applied first, since the pass yields it as the reference's.
func (a *Analyzer) scanDiff(rec *campaign.ExperimentRecord, ref *reference) (int, error) {
	if len(rec.State.Scan) == 0 || len(ref.rec.State.Scan) == 0 {
		return 0, nil
	}
	if rec.Ref != nil && ref.scanErr == nil && campaign.Aliased(rec.Ref.State.Scan, ref.rec.State.Scan) &&
		(len(rec.ScanDiff) == 0 || rec.ScanDiff[0] >= bitvec.MarshaledHeaderBits) {
		diff, limit := 0, min(ref.scan.Len(), a.observe.Len())
		for _, pos := range rec.ScanDiff {
			if bit := pos - bitvec.MarshaledHeaderBits; bit < limit && a.observe.Get(bit) {
				diff++
			}
		}
		return diff, nil
	}
	var rv bitvec.Vector
	if err := rv.UnmarshalBinary(rec.ScanState()); err != nil {
		return 0, fmt.Errorf("analysis: experiment scan state: %w", err)
	}
	if ref.scanErr != nil {
		return 0, fmt.Errorf("analysis: reference scan state: %w", ref.scanErr)
	}
	if rv.Len() != ref.scan.Len() {
		return 0, fmt.Errorf("analysis: scan length mismatch %d vs %d", rv.Len(), ref.scan.Len())
	}
	return rv.MaskedDiff(&ref.scan, a.observe)
}

func memoryEqual(a, b map[string][]byte, tolerance uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			return false
		}
		if campaign.Aliased(va, vb) {
			continue
		}
		if tolerance == 0 {
			if string(va) != string(vb) {
				return false
			}
			continue
		}
		if len(va) != len(vb) || len(va)%4 != 0 {
			return false
		}
		for i := 0; i+4 <= len(va); i += 4 {
			wa := int32(uint32(va[i])<<24 | uint32(va[i+1])<<16 | uint32(va[i+2])<<8 | uint32(va[i+3]))
			wb := int32(uint32(vb[i])<<24 | uint32(vb[i+1])<<16 | uint32(vb[i+2])<<8 | uint32(vb[i+3]))
			if absDiff32(wa, wb) > tolerance {
				return false
			}
		}
	}
	return true
}

func outputsEqual(a, b map[uint16][]uint32, tail int, tolerance uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || len(va) != len(vb) {
			return false
		}
		if campaign.Aliased(va, vb) {
			continue
		}
		start := 0
		if tail > 0 && len(va) > tail {
			start = len(va) - tail
		}
		for i := start; i < len(va); i++ {
			if tolerance == 0 {
				if va[i] != vb[i] {
					return false
				}
				continue
			}
			if absDiff32(int32(va[i]), int32(vb[i])) > tolerance {
				return false
			}
		}
	}
	return true
}

func absDiff32(a, b int32) uint32 {
	d := int64(a) - int64(b)
	if d < 0 {
		d = -d
	}
	return uint32(d)
}

// Run classifies every end-of-experiment record of the campaign, one at a
// time as the store decodes them. The reference run is the pass's own
// first record: rows stored relative to it come back sharing its unchanged
// Memory and Outputs values and its scan, so comparing those costs nothing.
func (a *Analyzer) Run() (*Report, error) { return a.run(nil) }

// run is Run handing every resultsBatch details to batch as soon as they
// are classified, the batches in order. A batch is a window of the
// report's Details that nothing writes to again; an append that moves
// Details on leaves it where it is.
func (a *Analyzer) run(batch func([]Details)) (*Report, error) {
	noReference := fmt.Errorf("analysis: campaign %q has no reference run", a.camp.Name)
	refName := campaign.ReferenceName(a.camp.Name)
	var ref *reference
	rep := &Report{
		Campaign:       a.camp.Name,
		Counts:         make(map[Class]int),
		Mechanisms:     make(map[string]int),
		OutcomeClasses: make(map[campaign.OutcomeStatus]int),
	}
	var latencySum uint64
	var latencyN int
	err := a.store.EachExperiment(a.camp.Name, func(rec *campaign.ExperimentRecord) error {
		if rec.Name == refName {
			ref = &reference{rec: rec}
			if len(rec.State.Scan) > 0 {
				ref.scanErr = ref.scan.UnmarshalBinary(rec.State.Scan)
			}
		}
		if rec.IsReference() || rec.Parent != "" {
			return nil // skip the reference and re-runs
		}
		if ref == nil {
			return noReference
		}
		d, err := a.classify(rec, ref)
		if err != nil {
			return err
		}
		rep.Total++
		if rec.Data.Injected {
			rep.Injected++
		}
		rep.Counts[d.Class]++
		rep.Recovered += d.Recovered
		switch rec.Data.Outcome.Status {
		case campaign.OutcomeMasked, campaign.OutcomeSDC,
			campaign.OutcomeCrash, campaign.OutcomeHang:
			rep.OutcomeClasses[rec.Data.Outcome.Status]++
		}
		switch d.Class {
		case ClassDetected:
			rep.Mechanisms[d.Mechanism]++
			latencySum += d.Latency
			latencyN++
		case ClassEscaped:
			if d.Timeliness {
				rep.EscapedTiming++
			} else {
				rep.EscapedValue++
			}
			if d.FailSilence() {
				rep.FailSilence++
			}
		}
		rep.Details = append(rep.Details, d)
		if n := len(rep.Details); batch != nil && n%resultsBatch == 0 {
			batch(rep.Details[n-resultsBatch : n : n])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if ref == nil {
		return nil, noReference
	}
	effective := rep.Counts[ClassDetected] + rep.Counts[ClassEscaped]
	rep.Coverage = Wilson(rep.Counts[ClassDetected], effective)
	rep.EffectiveRate = Wilson(effective, rep.Injected)
	if latencyN > 0 {
		rep.MeanDetectionLatency = float64(latencySum) / float64(latencyN)
	}
	return rep, nil
}

// Render formats the report as the text the analysis-phase tooling prints.
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Campaign %s: %d experiments (%d injected)\n", r.Campaign, r.Total, r.Injected)
	fmt.Fprintf(&sb, "  Effective errors:\n")
	fmt.Fprintf(&sb, "    detected      %5d  (%.1f%% of injected)\n",
		r.Counts[ClassDetected], 100*r.Fraction(ClassDetected))
	mechs := make([]string, 0, len(r.Mechanisms))
	for m := range r.Mechanisms {
		mechs = append(mechs, m)
	}
	sort.Strings(mechs)
	for _, m := range mechs {
		fmt.Fprintf(&sb, "      %-22s %5d\n", m, r.Mechanisms[m])
	}
	fmt.Fprintf(&sb, "    escaped       %5d  (value %d, timeliness %d; fail-silence violations %d)\n",
		r.Counts[ClassEscaped], r.EscapedValue, r.EscapedTiming, r.FailSilence)
	fmt.Fprintf(&sb, "  Non-effective errors:\n")
	fmt.Fprintf(&sb, "    latent        %5d\n", r.Counts[ClassLatent])
	fmt.Fprintf(&sb, "    overwritten   %5d\n", r.Counts[ClassOverwritten])
	if n := r.Counts[ClassNotInjected]; n > 0 {
		fmt.Fprintf(&sb, "  not injected    %5d\n", n)
	}
	if n := r.Counts[ClassInvalidRun]; n > 0 {
		fmt.Fprintf(&sb, "  invalid runs    %5d  (harness failures, excluded from all ratios)\n", n)
	}
	if len(r.OutcomeClasses) > 0 {
		fmt.Fprintf(&sb, "  process outcome classes:\n")
		for _, s := range []campaign.OutcomeStatus{campaign.OutcomeMasked,
			campaign.OutcomeSDC, campaign.OutcomeCrash, campaign.OutcomeHang} {
			if n := r.OutcomeClasses[s]; n > 0 {
				fmt.Fprintf(&sb, "    %-12s %5d\n", s, n)
			}
		}
	}
	fmt.Fprintf(&sb, "  detection coverage: %s\n", r.Coverage)
	fmt.Fprintf(&sb, "  effective rate:     %s\n", r.EffectiveRate)
	if r.MeanDetectionLatency > 0 {
		fmt.Fprintf(&sb, "  mean detection latency: %.0f cycles\n", r.MeanDetectionLatency)
	}
	if r.Recovered > 0 {
		fmt.Fprintf(&sb, "  assertion recoveries: %d\n", r.Recovered)
	}
	return sb.String()
}
