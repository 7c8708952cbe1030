package core

import (
	"bytes"
	"slices"

	"goofi/internal/bitvec"
	"goofi/internal/campaign"
	"goofi/internal/faultmodel"
)

// Def-use fault-space pruning. A transient fault is a set of scan-chain
// bits flipped once, at the instruction boundary where the trigger stops
// the workload. If, in the fault-free reference run, nothing reads any
// of those bits from that boundary on, the faulty run *is* the reference
// run: same instructions, same outputs, same end. A bit that is never
// touched again is still flipped in the final scan (latent); a bit that
// is overwritten first is not (overwritten). Either way the experiment's
// row is known without running it. The runner asks the reference run's
// def-use table at dispatch, synthesizes the rows it can prove — byte
// for byte what emulation would have logged — and leases a board only
// for the rest. DESIGN.md §14 has the soundness argument per field kind
// and the list of what is never pruned.

// Access is the kind of the first access a DefUseTable finds.
type Access uint8

// Access kinds. Anything a table cannot prove is AccessRead.
const (
	AccessNone  Access = iota // never touched again: the flip stays
	AccessRead                // read first: the experiment must run
	AccessWrite               // overwritten first: the flip is gone
)

// DefUseTable is a reference run's access trace over the bits of one
// scan chain, recorded by the target next to the forwarding checkpoints
// and held in the ForwardSet.
type DefUseTable interface {
	// Chain names the scan chain whose bit offsets the table indexes.
	Chain() string
	// InjectionPoint maps a counter trigger's threshold (a cycle count,
	// or a retired-instruction count when byInstret) to the instruction
	// boundary at which it stops the workload: the boundary's index and
	// its cycle count. ok is false when the reference run ended before
	// the trigger would fire.
	InjectionPoint(at uint64, byInstret bool) (idx int, cycle uint64, ok bool)
	// NextAccess reports what first touches chain bit `bit` when the
	// reference run continues from boundary idx.
	NextAccess(bit, idx int) Access
}

// PruneClass says how an experiment's row came to be.
type PruneClass int

// Prune classes.
const (
	// NotPruned: the experiment ran on a board.
	NotPruned PruneClass = iota
	// PrunedLatent: no flipped bit is read again and at least one is
	// never overwritten, so the final scan differs from the reference's
	// in exactly those bits.
	PrunedLatent
	// PrunedOverwritten: every flipped bit is overwritten before any
	// read; the row equals the reference's.
	PrunedOverwritten
)

// String names the class as telemetry labels it.
func (c PruneClass) String() string {
	switch c {
	case PrunedLatent:
		return "latent"
	case PrunedOverwritten:
		return "overwritten"
	}
	return "emulated"
}

// PrunedCounts splits Summary.Pruned by class.
type PrunedCounts struct {
	Latent      int
	Overwritten int
}

// Total is the number of experiments that never leased a board.
func (p PrunedCounts) Total() int { return p.Latent + p.Overwritten }

// pruner decides, per planned experiment, whether its row can be
// synthesized from the reference run.
type pruner struct {
	r   *Runner
	set *ForwardSet
	// ref is the reference state the synthesized rows are handed to the
	// sink as differences from; nil when the run has no sink, whose rows
	// are only resolved.
	ref *campaign.Reference
	// The rows' records come from recs and their scan differences are
	// carved from a slab, and classify lists the bits that stay flipped in
	// latent: only the hand-over stage asks.
	recs   records
	diffs  Slab[int]
	latent []int
}

// newPruner returns the campaign's pruner, or nil when nothing may be
// pruned: no recorded set (forwarding off, a target that records
// nothing), detail-mode logging (the per-instruction trace has to be
// produced), an algorithm whose listing is not prunable (the synthesized
// row is SCIFI's: run to termination, read memory, read the scan chain), a
// table over a different chain than the one the campaign injects into, or
// — with a sink to log to — a reference state (ref, the one the run's rows
// go relative to) that is not the set's reference result, which is also
// what a target that declares itself nondeterministic comes to: it has
// none.
func (r *Runner) newPruner(set *ForwardSet, ref *campaign.Reference) *pruner {
	if set == nil || set.DefUse == nil || set.Reference == nil || set.Reference.FinalScan == nil ||
		set.Campaign != r.camp.Name || r.camp.LogMode == campaign.LogDetail || !r.alg.prunable {
		return nil
	}
	if m, err := r.chainMap(); err != nil || m.Chain != set.DefUse.Chain() {
		return nil
	}
	if r.sink != nil {
		if ref == nil {
			return nil
		}
		sv, err := set.Reference.StateVector()
		if err != nil {
			return nil
		}
		mine, _ := sv.Encode()
		logged, _ := ref.State.Encode()
		if !bytes.Equal(mine, logged) {
			return nil
		}
	}
	return &pruner{r: r, set: set, ref: ref, recs: recordsFor(r.sink)}
}

// classify decides whether pe is a provable no-op. It returns NotPruned
// when the experiment has to run: a persistent fault (reasserted for the
// rest of the run), a trigger that is not a counter threshold, an
// injection point the reference run never reached, or any flipped bit
// that is read before it is overwritten. Otherwise it returns the class,
// the cycle of the injection boundary and the bits that stay flipped, in
// p.latent until the next call. A nil pruner prunes nothing.
func (p *pruner) classify(pe *plannedExperiment) (class PruneClass, cycle uint64, latent []int) {
	if p == nil || pe.fault.Kind != faultmodel.Transient {
		return NotPruned, 0, nil
	}
	at, byInstret, ok := pe.trig.ForwardPoint()
	if !ok {
		return NotPruned, 0, nil
	}
	if pe.fault.Validate(p.set.Reference.FinalScan.Len()) != nil {
		return NotPruned, 0, nil // let InjectFault report it
	}
	idx, cycle, ok := p.set.DefUse.InjectionPoint(at, byInstret)
	if !ok {
		return NotPruned, 0, nil
	}
	latent = p.latent[:0]
	for _, b := range pe.fault.Bits {
		switch p.set.DefUse.NextAccess(b, idx) {
		case AccessRead:
			return NotPruned, 0, nil
		case AccessNone:
			latent = append(latent, b)
		}
	}
	p.latent = latent
	if len(latent) > 0 {
		return PrunedLatent, cycle, latent
	}
	return PrunedOverwritten, cycle, nil
}

// try returns pe's row and its class when pe is a provable no-op, or nil
// and NotPruned when it has to run. The row says what the classification
// found and no more: the reference's outcome, and its state plus the bits
// that stay flipped, as positions in the stored scan state, ascending —
// nothing is cloned, marshaled or compared to get there, and no Experiment
// is built: the hand-over stage resolves the slot from the row. The row is
// named pe.name, or by its seq when that is empty.
func (p *pruner) try(pe *plannedExperiment) (*campaign.ExperimentRecord, PruneClass) {
	class, cycle, latent := p.classify(pe)
	if class == NotPruned {
		return nil, NotPruned
	}
	var diff []int
	if len(latent) > 0 {
		diff = p.diffs.Take(len(latent))
		for i, b := range latent {
			diff[i] = b + bitvec.MarshaledHeaderBits
		}
		slices.Sort(diff)
	}
	name := pe.name
	if name == "" {
		name = campaign.ExperimentName(p.r.camp.Name, pe.seq)
	}
	rec := p.recs.next()
	*rec = campaign.ExperimentRecord{
		Name:     name,
		Campaign: p.r.camp.Name,
		Step:     -1,
		Data: campaign.ExperimentData{Seq: pe.seq, Fault: pe.fault, Trigger: pe.trig,
			InjectionCycle: cycle, Injected: true, Outcome: p.set.Reference.Outcome},
		Ref:      p.ref,
		ScanDiff: diff,
		FromRef:  true,
	}
	return rec, class
}
