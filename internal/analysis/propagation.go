package analysis

import (
	"fmt"

	"goofi/internal/bitvec"
	"goofi/internal/campaign"
)

// This file implements error propagation analysis over detail-mode traces:
// "The detail mode operation is used to produce an execution trace,
// allowing the error propagation to be analysed in detail" (paper §3.3).
// Comparing a faulty run's per-instruction state against the fault-free
// reference trace shows when the error appears, how it spreads through
// the state elements, and whether it contracts (overwritten) or grows
// until detection or failure.

// PropagationPoint is the error extent at one instruction of the trace.
type PropagationPoint struct {
	// Step is the instruction index within the trace.
	Step int
	// DiffBits is the number of observed scan bits differing from the
	// reference at this step.
	DiffBits int
	// PC is the faulty run's program counter at this step, when the PC
	// is part of the observed state (0 otherwise).
	PC uint32
	// Diverged reports whether control flow differs from the reference
	// (PCs disagree).
	Diverged bool
}

// Propagation is the full error propagation curve of one experiment.
type Propagation struct {
	Experiment string
	Reference  string
	Points     []PropagationPoint
	// FirstError is the step where state first differs (-1 if never).
	FirstError int
	// FirstDivergence is the step where control flow first differs
	// (-1 if never).
	FirstDivergence int
	// MaxDiffBits is the peak error extent.
	MaxDiffBits int
	// Steps is the number of compared steps (the shorter trace bounds
	// the comparison; a detected run's trace ends at detection).
	Steps int
}

// PropagationCurve compares an experiment's detail trace against the
// reference run's detail trace. Both must have been produced in detail
// mode (campaign LogMode detail, or a detail-mode re-run).
func PropagationCurve(store *campaign.Store, expName string) (*Propagation, error) {
	exp, err := store.GetExperiment(expName)
	if err != nil {
		return nil, err
	}
	refName := campaign.ReferenceName(exp.Campaign)
	expTrace, err := store.Trace(expName)
	if err != nil {
		return nil, err
	}
	if len(expTrace) == 0 {
		return nil, fmt.Errorf("analysis: experiment %q has no detail trace", expName)
	}
	refTrace, err := store.Trace(refName)
	if err != nil {
		return nil, err
	}
	if len(refTrace) == 0 {
		return nil, fmt.Errorf("analysis: reference %q has no detail trace", refName)
	}

	a, err := New(store, exp.Campaign)
	if err != nil {
		return nil, err
	}
	pcField, havePC := a.pcLocation()

	n := len(expTrace)
	if len(refTrace) < n {
		n = len(refTrace)
	}
	p := &Propagation{
		Experiment:      expName,
		Reference:       refName,
		FirstError:      -1,
		FirstDivergence: -1,
		Steps:           n,
	}
	for i := 0; i < n; i++ {
		var ev, rv bitvec.Vector
		if err := ev.UnmarshalBinary(expTrace[i].State.Scan); err != nil {
			return nil, fmt.Errorf("analysis: trace step %d: %w", i, err)
		}
		if err := rv.UnmarshalBinary(refTrace[i].State.Scan); err != nil {
			return nil, fmt.Errorf("analysis: reference step %d: %w", i, err)
		}
		if ev.Len() != rv.Len() {
			return nil, fmt.Errorf("analysis: trace state length mismatch at step %d", i)
		}
		diff, err := ev.MaskedDiff(&rv, a.observe)
		if err != nil {
			return nil, err
		}
		pt := PropagationPoint{Step: i, DiffBits: diff}
		if havePC {
			expPC := uint32(ev.Uint64(pcField.Offset, pcField.Width))
			refPC := uint32(rv.Uint64(pcField.Offset, pcField.Width))
			pt.PC = expPC
			pt.Diverged = expPC != refPC
		}
		if diff > 0 && p.FirstError < 0 {
			p.FirstError = i
		}
		if pt.Diverged && p.FirstDivergence < 0 {
			p.FirstDivergence = i
		}
		if diff > p.MaxDiffBits {
			p.MaxDiffBits = diff
		}
		p.Points = append(p.Points, pt)
	}
	return p, nil
}

// pcLocation finds the program counter in the observed chain map.
func (a *Analyzer) pcLocation() (loc struct{ Offset, Width int }, ok bool) {
	chainName := a.camp.ChainName
	var err error
	m := &a.tsd.Chains[0]
	if chainName != "" {
		if m, err = a.tsd.Chain(chainName); err != nil {
			return loc, false
		}
	}
	l, err := m.Find("cpu.pc")
	if err != nil {
		return loc, false
	}
	loc.Offset, loc.Width = l.Offset, l.Width
	return loc, true
}

// Summary renders the propagation curve compactly: the error extent at a
// few sample points plus the key events.
func (p *Propagation) Summary() string {
	out := fmt.Sprintf("propagation of %s vs %s over %d steps:\n", p.Experiment, p.Reference, p.Steps)
	out += fmt.Sprintf("  first state error at step %d, first control-flow divergence at step %d, peak extent %d bits\n",
		p.FirstError, p.FirstDivergence, p.MaxDiffBits)
	stride := len(p.Points) / 8
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < len(p.Points); i += stride {
		pt := p.Points[i]
		marker := ""
		if pt.Diverged {
			marker = " (diverged)"
		}
		out += fmt.Sprintf("  step %5d: %4d corrupted bits%s\n", pt.Step, pt.DiffBits, marker)
	}
	return out
}
