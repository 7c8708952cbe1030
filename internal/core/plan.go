package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"goofi/internal/faultmodel"
	"goofi/internal/trigger"
)

// planTable is a campaign's injection plan, indexed by sequence number.
// What every experiment of the campaign shares — the fault kind, its
// activation probability, the multiplicity m and the campaign's trigger —
// is held once. Per experiment the table keeps only what was drawn for it:
// its m bit offsets, in one flat array, and, when the campaign draws its
// injection times from a window, its trigger cycle. The sequence number is
// the index, so the table holds no pointer but the two arrays' and the
// collector never scans their contents: 8m bytes an experiment, 8 more with
// a random window, against 128 for a struct of its own with its own Bits.
type planTable struct {
	n    int
	m    int
	kind faultmodel.Kind
	prob float64
	trig trigger.Spec
	// bits holds experiment seq's offsets at [seq*m, (seq+1)*m).
	bits []int
	// cycles holds the drawn trigger cycles; nil when every experiment
	// has the campaign's trigger as it stands.
	cycles []uint64
}

// plannedExperiment is one entry of the plan, built where it is read: a
// value, not something the plan holds. name is the experiment's name where
// the hand-over stage has made it, "" elsewhere.
type plannedExperiment struct {
	seq   int
	fault faultmodel.Fault
	trig  trigger.Spec
	name  string
}

// at builds experiment seq's entry. Its fault's Bits is the experiment's
// stretch of the flat array, capped at its length so that an append copies
// rather than running into the next experiment's bits. Nothing is copied
// or allocated, and nothing may write through it.
func (t *planTable) at(seq int) plannedExperiment {
	lo, hi := seq*t.m, (seq+1)*t.m
	pe := plannedExperiment{seq: seq, trig: t.trig,
		fault: faultmodel.Fault{Kind: t.kind, Bits: t.bits[lo:hi:hi], ActiveProb: t.prob}}
	if t.cycles != nil {
		pe.trig.Cycle = t.cycles[seq]
	}
	return pe
}

// plan draws the campaign's complete injection plan up front from a single
// RNG seeded with the campaign seed. Because the plan stream is fixed
// before any experiment runs, per-experiment outcomes are bit-identical
// regardless of how many boards later execute the plan.
func (r *Runner) plan() (*planTable, int, error) {
	sp, _, err := r.space()
	if err != nil {
		return nil, 0, err
	}
	planRNG := rand.New(rand.NewSource(r.camp.Seed))
	fm, window, n := &r.camp.FaultModel, r.camp.RandomWindow, r.camp.NumExperiments
	if n > math.MaxInt32 {
		return nil, 0, fmt.Errorf("core: campaign %q: %d experiments, more than a plan holds (%d)",
			r.camp.Name, n, math.MaxInt32)
	}
	t := &planTable{n: n, m: fm.Width(), kind: fm.Kind, prob: fm.ActiveProb, trig: r.camp.Trigger}
	// A multiplicity the space cannot hold fails the first draw; the
	// table is not sized by it first.
	t.bits = make([]int, 0, n*min(t.m, sp.Bits()))
	if window[1] > 0 {
		t.cycles = make([]uint64, n)
	}
	skipped := 0
	// A bounded redraw budget keeps a pathological filter (rejecting
	// everything) from spinning forever.
	maxRedraws := 1000 * n
	for i := 0; i < n; i++ {
		for {
			if t.bits, err = sp.AppendSample(t.bits, fm, planRNG); err != nil {
				return nil, 0, err
			}
			if t.cycles != nil {
				t.cycles[i] = window[0] + uint64(planRNG.Int63n(int64(window[1]-window[0])))
			}
			if pe := t.at(i); r.filter == nil || r.filter(pe.fault, pe.trig) {
				break
			}
			t.bits = t.bits[:i*t.m]
			skipped++
			if skipped > maxRedraws {
				return nil, 0, fmt.Errorf("core: campaign %q: pre-injection filter rejected %d draws",
					r.camp.Name, skipped)
			}
		}
	}
	return t, skipped, nil
}

// planHashOf fingerprints the campaign definition together with the full
// injection plan drawn from it. A checkpoint stores this hash; resuming
// validates it, so a campaign whose configuration (and therefore plan)
// changed since the checkpoint is rejected instead of silently mixing
// two different plans' results.
func (r *Runner) planHashOf(t *planTable) string {
	h := sha256.New()
	cfg, _ := json.Marshal(r.camp)
	h.Write(cfg)
	f := newPlanLine(t.kind, t.prob, t.trig)
	buf := make([]byte, 0, planHashChunk+256)
	for seq := range t.n {
		pe := t.at(seq)
		buf = f.append(buf, seq, pe.fault.Bits, pe.trig.Cycle)
		if len(buf) >= planHashChunk {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// planHashChunk is how many bytes of plan lines planHashOf gathers per
// Write: a line is about a hundred, and the hash takes whole blocks
// straight from a long input.
const planHashChunk = 16 << 10

// appendPlanLine appends one plan entry as the hash has always read it:
// the bytes of fmt.Sprintf("%d|%+v|%+v\n", pe.seq, pe.fault, pe.trig).
// Durable cursors hold hashes of these bytes, so the format is frozen;
// only the formatting is by hand, because every process that plans —
// each shard worker included — hashes the whole plan.
func appendPlanLine(b []byte, pe *plannedExperiment) []byte {
	f := newPlanLine(pe.fault.Kind, pe.fault.ActiveProb, pe.trig)
	return f.append(b, pe.seq, pe.fault.Bits, pe.trig.Cycle)
}

// planLine is appendPlanLine's format with what a campaign's entries share
// formatted once: everything but the sequence number, the bits and the
// trigger's cycle.
type planLine struct{ head, mid, tail []byte }

func newPlanLine(kind faultmodel.Kind, prob float64, trig trigger.Spec) planLine {
	var f planLine
	f.head = append([]byte("|{Kind:"), kind...)
	f.head = append(f.head, " Bits:["...)
	f.mid = append([]byte("] ActiveProb:"), strconv.FormatFloat(prob, 'g', -1, 64)...)
	f.mid = append(f.mid, "}|{Kind:"...)
	f.mid = append(f.mid, trig.Kind...)
	f.mid = append(f.mid, " Cycle:"...)
	f.tail = append([]byte(" Count:"), strconv.FormatUint(trig.Count, 10)...)
	f.tail = append(f.tail, " Addr:"...)
	f.tail = strconv.AppendUint(f.tail, uint64(trig.Addr), 10)
	f.tail = append(f.tail, " Occurrence:"...)
	f.tail = strconv.AppendInt(f.tail, int64(trig.Occurrence), 10)
	f.tail = append(f.tail, " Write:"...)
	f.tail = strconv.AppendBool(f.tail, trig.Write)
	f.tail = append(f.tail, " Period:"...)
	f.tail = strconv.AppendUint(f.tail, trig.Period, 10)
	f.tail = append(f.tail, "}\n"...)
	return f
}

// append appends the line of entry seq with the given bits and trigger
// cycle.
func (f *planLine) append(b []byte, seq int, bits []int, cycle uint64) []byte {
	b = strconv.AppendInt(b, int64(seq), 10)
	b = append(b, f.head...)
	for i, bit := range bits {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(bit), 10)
	}
	b = append(b, f.mid...)
	b = strconv.AppendUint(b, cycle, 10)
	return append(b, f.tail...)
}
