package campaign

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"goofi/internal/bitvec"
	"goofi/internal/sqldb"
)

// A record that says its state as a difference from the reference (FromRef,
// what core's pruner hands over) has no second encoder either: its oracle
// is the same record with the state spelled out, through the walk every
// emulated row takes.

// fromRefReference is a reference run's state over a 100-bit chain, as a
// store's read pass builds it.
func fromRefReference(t testing.TB) *Reference {
	scan := bitvec.New(100)
	for _, b := range []int{0, 3, 64, 99} {
		scan.Set(b, true)
	}
	b, err := scan.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return decodedReference(t, &StateVector{
		Scan:    b,
		Memory:  map[string][]byte{"a": {1, 2, 3}, "b": nil},
		Outputs: map[uint16][]uint32{1: {10, 1 << 20}, 7: {}},
	})
}

func fromRefRecord(ref *Reference, seq int, diff ...int) *ExperimentRecord {
	return &ExperimentRecord{Name: ExperimentName("camp-1", seq), Campaign: "camp-1", Step: -1,
		Data: ExperimentData{Seq: seq, Injected: true, Outcome: Outcome{Status: OutcomeCompleted, Cycles: 9}},
		Ref:  ref, ScanDiff: diff, FromRef: true}
}

// spelledOut is r with its state in State, the way an emulated experiment's
// record holds it.
func spelledOut(t testing.TB, r *ExperimentRecord) *ExperimentRecord {
	t.Helper()
	state, err := r.WholeState()
	if err != nil {
		t.Fatal(err)
	}
	out := *r
	out.State, out.ScanDiff, out.FromRef = *state, nil, false
	return &out
}

func TestPrunedRecordEncodesAsSpelledOut(t *testing.T) {
	ref := fromRefReference(t)
	const first, last = bitvec.MarshaledHeaderBits, bitvec.MarshaledHeaderBits + 99
	for _, diff := range [][]int{nil, {}, {first}, {last}, {first, first + 1, last}, {first + 7, first + 8, first + 63, first + 64}} {
		rec := fromRefRecord(ref, 1, diff...)
		row, err := EncodeRow(rec)
		if err != nil {
			t.Fatalf("difference %v: %v", diff, err)
		}
		want := mustRow(spelledOut(t, rec))
		if !reflect.DeepEqual(row, want) {
			t.Errorf("difference %v encodes as\n%s\n%x\nspelled out as\n%s\n%x", diff,
				row.Cols[4].B, row.Cols[5].B, want.Cols[4].B, want.Cols[5].B)
		}
		back, err := DecodeRow(&row, ref)
		if err != nil {
			t.Fatal(err)
		}
		state, _ := rec.WholeState()
		if !reflect.DeepEqual(&back.State, state) || !slices.Equal(back.ScanDiff, diff) {
			t.Errorf("difference %v decodes to %+v (diff %v), want %+v", diff, back.State, back.ScanDiff, state)
		}
		if len(diff) == 0 && !Aliased(state.Scan, ref.State.Scan) {
			t.Error("an empty difference copied the reference's scan state")
		}
	}
	if !bytes.Equal(ref.State.Scan, fromRefReference(t).State.Scan) {
		t.Error("spelling a difference out changed the reference")
	}
}

// TestPrunedRecordHostileScanDiff: a difference the relative form cannot
// hold, or a FromRef record that is not an experiment's end row, is refused
// by the encoder and by every sink in front of it, and nothing of it is
// stored.
func TestPrunedRecordHostileScanDiff(t *testing.T) {
	ref := fromRefReference(t)
	const first, end = bitvec.MarshaledHeaderBits, bitvec.MarshaledHeaderBits + 100
	hostile := map[string]*ExperimentRecord{
		"unsorted":                 fromRefRecord(ref, 1, first+6, first+1),
		"duplicate":                fromRefRecord(ref, 1, first+6, first+6),
		"inside the length header": fromRefRecord(ref, 1, 3),
		"the header's last bit":    fromRefRecord(ref, 1, first-1, first),
		"negative":                 fromRefRecord(ref, 1, -1),
		"the bit past the vector":  fromRefRecord(ref, 1, first, end),
		"in the last word's slack": fromRefRecord(ref, 1, end+20),
		"past the blob":            fromRefRecord(ref, 1, 8*len(ref.State.Scan)),
		"no reference":             fromRefRecord(nil, 1, first),
		"the reference row":        fromRefRecord(ref, -1),
		"a detail-mode step row":   func() *ExperimentRecord { r := fromRefRecord(ref, 1); r.Step = 3; return r }(),
		"an invalid run": func() *ExperimentRecord {
			r := fromRefRecord(ref, 1)
			r.Data.Outcome.Status = OutcomeInvalidRun
			return r
		}(),
	}
	for name, rec := range hostile {
		if row, err := EncodeRow(rec); err == nil {
			t.Errorf("%s: encoded as %x", name, row.Cols[5].B)
		} else if rec.Ref != nil && !strings.Contains(err.Error(), rec.Name) {
			t.Errorf("%s: the error does not name the experiment: %v", name, err)
		}
		if vals, err := new(rowEncoder).encode([]*ExperimentRecord{sinkRecord(0), rec}); err == nil {
			t.Errorf("%s: encoded in a batch as %x", name, vals[rowWidth+5].B)
		}
		st := sinkFixture(t)
		if err := st.LogExperiment(rec); err == nil {
			t.Errorf("%s: the store logged it", name)
		}
		s := NewBatchingSink(st, 0)
		if err := s.LogExperiment(rec); err != nil {
			t.Fatalf("%s: queueing: %v", name, err)
		}
		if err := s.Close(); err == nil {
			t.Errorf("%s: the sink stored it", name)
		}
		if n, err := st.CountExperiments("camp-1"); err != nil || n != 0 {
			t.Errorf("%s: %d rows stored (%v)", name, n, err)
		}
	}
	for _, name := range []string{"unsorted", "inside the length header", "the bit past the vector", "no reference"} {
		if state, err := hostile[name].WholeState(); err == nil {
			t.Errorf("%s: spelled out as %+v", name, state)
		}
	}
}

// TestEncodeRowsMatchesEncodeRow: a batch encoded through a writer's
// encoder is, row for row, what EncodeRow makes of each record; no row's
// blob can be appended to into its neighbour's; and the encoder's next
// batch, which reuses its scratch, leaves the rows it returned before as
// they were.
func TestEncodeRowsMatchesEncodeRow(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := randStateVector(rng)
	base.Scan = fromRefReference(t).State.Scan
	ref := NewReference(base)
	var enc rowEncoder
	type batch struct {
		vals []sqldb.Value
		want [][]sqldb.Value
	}
	var before []batch
	for trial := 0; trial < 20; trial++ {
		recs := make([]*ExperimentRecord, 1+rng.Intn(2*DefaultBatchSize))
		for i := range recs {
			rec := &ExperimentRecord{Name: ExperimentName("c", i), Campaign: "c", Step: -1,
				Data: *randExperimentData(rng), State: *randVariant(rng, base), Ref: ref}
			rec.Data.Seq = i
			switch rng.Intn(6) {
			case 0: // stored whole, and a kilobyte and more of it
				rec.Ref = nil
				rec.State.Scan = make([]byte, 600+rng.Intn(3000))
				rng.Read(rec.State.Scan)
			case 1, 2:
				rec.State, rec.FromRef = StateVector{}, true
				rec.ScanDiff = []int{bitvec.MarshaledHeaderBits + rng.Intn(100)}
			case 3:
				rec.Parent = ExperimentName("c", i+1000)
			}
			recs[i] = rec
		}
		vals, err := enc.encode(recs)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != len(recs)*rowWidth {
			t.Fatalf("%d values for %d records", len(vals), len(recs))
		}
		b := batch{vals: vals}
		for i, rec := range recs {
			row := mustRow(rec)
			got, want := vals[i*rowWidth:(i+1)*rowWidth], row.Cols[:]
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("row %d of %d in a batch\n%s\n%x\nalone\n%s\n%x", i, len(recs),
					got[4].B, got[5].B, want[4].B, want[5].B)
			}
			for _, col := range []int{4, 5} {
				if b := got[col].B; cap(b) != len(b) {
					t.Fatalf("row %d column %d: %d bytes in a window of %d", i, col, len(b), cap(b))
				}
			}
			b.want = append(b.want, want)
		}
		before = append(before, b)
	}
	for k, b := range before {
		for i, want := range b.want {
			if got := b.vals[i*rowWidth : (i+1)*rowWidth]; !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d row %d changed when the encoder went on to the next batches", k, i)
			}
		}
	}
	if vals, err := enc.encode(nil); err != nil || len(vals) != 0 {
		t.Errorf("an empty batch: %v, %v", vals, err)
	}
}
