package campaign

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"goofi/internal/sqldb"
	"goofi/internal/telemetry"
)

// The relative form of a stateVector has no second decoder to be compared
// with, so its oracle is the absolute form: whatever state a relative blob
// decodes to, the absolute blob of that state decodes to the same thing,
// and a record stored relative reads back deep-equal to the same record
// stored whole.

// decodedReference is the reference a store's read pass builds: from the
// decoded absolute blob of sv, so nil and empty are what JSON made of them.
func decodedReference(t testing.TB, sv *StateVector) *Reference {
	t.Helper()
	back, err := DecodeStateVector(sv.appendJSON(nil))
	if err != nil {
		t.Fatal(err)
	}
	return NewReference(back)
}

// checkRelative parses b as a relative blob against ref and, when the
// parser takes it, holds the result to the absolute form: the parser
// leaves the reference's own scan in place, the state with the diff list
// applied survives a trip through its absolute blob unchanged, the diff
// list is exactly where that Scan departs from the reference's, and its
// own relative blob decodes back to it. It reports whether b was taken.
func checkRelative(t *testing.T, b []byte, ref *Reference) bool {
	t.Helper()
	var s StateVector
	diff, ok := parseRelative(b, ref, &s)
	if !ok {
		return false
	}
	if !Aliased(s.Scan, ref.State.Scan) {
		t.Fatalf("relative blob's scan is not the reference's\n%x", b)
	}
	s.Scan = flipBits(s.Scan, diff)
	var abs StateVector
	if err := decodeStateVector(s.appendJSON(nil), &abs); err != nil {
		t.Fatalf("absolute form of an accepted relative blob: %v\n%x", err, b)
	}
	if !reflect.DeepEqual(&s, &abs) {
		t.Fatalf("relative blob decoded to\n%#v\nits absolute form to\n%#v\nfrom %x", s, abs, b)
	}
	var want []int
	for i, c := range s.Scan {
		for bit := 0; bit < 8; bit++ {
			if (c^ref.State.Scan[i])>>bit&1 != 0 {
				want = append(want, 8*i+bit)
			}
		}
	}
	if !reflect.DeepEqual(diff, want) {
		t.Fatalf("scan diff %v, the scans differ at %v\n%x", diff, want, b)
	}
	again, fits := relativeBlob(&s, ref)
	if !fits {
		t.Fatalf("a state decoded against the reference does not encode against it\n%x", b)
	}
	var s2 StateVector
	diff2, ok := parseRelative(again, ref, &s2)
	if s2.Scan = flipBits(s2.Scan, diff2); !ok || !reflect.DeepEqual(&s2, &s) {
		t.Fatalf("re-encoded %x (from %x) decodes to\n%#v\nwant\n%#v", again, b, s2, s)
	}
	return true
}

// hostileReference is what hostileRelative is written against: 32 scan
// bits, symbols a (3 bytes) and b (nil), ports 1 (two values) and 7 (none).
func hostileReference(t testing.TB) *Reference {
	return decodedReference(t, &StateVector{
		Scan:    []byte{0xf0, 0x0f, 0x00, 0xff},
		Memory:  map[string][]byte{"a": {1, 2, 3}, "b": nil},
		Outputs: map[uint16][]uint32{1: {10, 1 << 20}, 7: {}},
	})
}

// hostileRelative lists relative blobs behind the five-byte header, each
// with whether the parser must take it. The lists are scan, memory,
// outputs; 0 ends one.
var hostileRelative = []struct {
	name string
	body string
	ok   bool
}{
	{"no difference", "\x00\x00\x00", true},
	{"first and last scan bit", "\x01\x1f\x00\x00\x00", true},
	{"scan position at the length", "\x21\x00\x00\x00", false},
	{"scan position past the length by the gaps' sum", "\x10\x10\x01\x00\x00\x00", false},
	{"scan gap overflows a uvarint", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f\x00\x00\x00", false},
	{"scan gap overflows an int", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x00\x00\x00", false},
	{"cut off in a varint", "\x80", false},
	{"cut off after the scan list", "\x00", false},
	{"cut off after the memory list", "\x00\x00", false},
	{"nothing behind the header", "", false},
	{"bytes after the outputs list", "\x00\x00\x00\x00", false},
	{"non-minimal varints", "\x81\x00\x80\x00\x00\x00", true},
	// memory
	{"patch a[0] and a[2]", "\x00\x01\x00\x01\x09\x02\x08\x00\x00\x00", true},
	{"patch index at a's length", "\x00\x01\x00\x04\x09\x00\x00\x00", false},
	{"patch of nil b", "\x00\x02\x00\x00\x00\x00", true},
	{"patch of nil b with an entry", "\x00\x02\x00\x01\x09\x00\x00\x00", false},
	{"patch cut off before its byte", "\x00\x01\x00\x01", false},
	{"whole a", "\x00\x01\x01\x02\x07\x08\x00\x00", true},
	{"whole empty b", "\x00\x02\x01\x00\x00\x00", true},
	{"whole a longer than the blob", "\x00\x01\x01\x7f\x07\x08\x00\x00", false},
	{"whole a of 2^63 bytes", "\x00\x01\x01\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01\x00\x00", false},
	{"nil a", "\x00\x01\x02\x00\x00", true},
	{"absent a and b", "\x00\x01\x03\x01\x03\x00\x00", true},
	{"unknown value mode", "\x00\x01\x04\x00\x00", false},
	{"symbol index at the symbol count", "\x00\x03\x02\x00\x00", false},
	{"the same symbol twice ends the list early", "\x00\x01\x02\x00\x02\x00\x00", false},
	// outputs
	{"patch port 1's second value", "\x00\x00\x01\x00\x02\x2a\x00\x00", true},
	{"patch value past uint32", "\x00\x00\x01\x00\x01\x80\x80\x80\x80\x10\x00\x00", false},
	{"patch of empty port 7 with an entry", "\x00\x00\x02\x00\x01\x05\x00\x00", false},
	{"whole port 7", "\x00\x00\x02\x01\x03\x01\x80\x01\xff\xff\xff\xff\x0f\x00", true},
	{"whole port 7 longer than the blob", "\x00\x00\x02\x01\x09\x01\x02\x00", false},
	{"absent port 1, nil port 7", "\x00\x00\x01\x03\x01\x02\x00", true},
	{"port index at the port count", "\x00\x00\x03\x02\x00", false},
}

// checkHostileRelative runs hostileRelative; TestDecodeHostileBlobs calls it.
func checkHostileRelative(t *testing.T) {
	t.Helper()
	ref := hostileReference(t)
	header := binary.LittleEndian.AppendUint32([]byte{tagRelative}, ref.sum)
	for _, c := range hostileRelative {
		blob := append(bytes.Clone(header), c.body...)
		if got := checkRelative(t, blob, ref); got != c.ok {
			t.Errorf("%s: parser took it: %v, want %v (%x)", c.name, got, c.ok, blob)
		}
	}
	if checkRelative(t, header[:3], ref) {
		t.Error("parser took a blob cut inside its header")
	}
}

// relativeSeeds returns the relative rows under testdata/rows as
// (experimentData, stateVector) pairs, and the reference they are relative
// to: quickstart experiments as this build stores them — one emulated on
// thor to a wrong result (Memory and Outputs patched), one pruned (a latent
// scan bit, nothing else), one ended by a detection (hundreds of scan bits,
// no Outputs at all) — against reference.state.json, the quickstart
// reference run.
func relativeSeeds(t testing.TB) ([][2][]byte, *Reference) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join("testdata", "rows", "*.state.rel"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no relative seed rows: %v", err)
	}
	var out [][2][]byte
	for _, n := range names {
		state, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(strings.TrimSuffix(n, ".state.rel") + ".data.json")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2][]byte{data, state})
	}
	blob, err := os.ReadFile(filepath.Join("testdata", "rows", "reference.state.json"))
	if err != nil {
		t.Fatal(err)
	}
	sv, err := DecodeStateVector(blob)
	if err != nil {
		t.Fatal(err)
	}
	return out, NewReference(sv)
}

// checkRealRelativeRows: the relative rows this build writes parse — as
// rows, checksum included — and are what EncodeRow makes of the records
// they decode to. TestDecodeRealRowsTakeFastPath calls it.
func checkRealRelativeRows(t *testing.T) {
	t.Helper()
	seeds, ref := relativeSeeds(t)
	for _, seed := range seeds {
		if !checkExperimentData(t, seed[0]) {
			t.Errorf("experimentData fell back to encoding/json:\n%s", seed[0])
		}
		if !checkRelative(t, seed[1], ref) {
			t.Fatalf("relative stateVector refused: %x", seed[1])
		}
		row := Row{Cols: [6]sqldb.Value{sqldb.Text("quickstart/x"), sqldb.Null(), sqldb.Text("quickstart"),
			sqldb.Int(-1), sqldb.Blob(seed[0]), sqldb.Blob(seed[1])}}
		rec, err := DecodeRow(&row, ref)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Ref != ref {
			t.Error("a relative row decoded without its reference attached")
		}
		again := mustRow(rec)
		if !bytes.Equal(again.Cols[4].B, seed[0]) || !bytes.Equal(again.Cols[5].B, seed[1]) {
			t.Errorf("re-encoded row differs:\n%s\n%x\nwant\n%s\n%x", again.Cols[4].B, again.Cols[5].B, seed[0], seed[1])
		}
	}
}

// checkMutatedRelativeRows damages relative blobs a byte at a time:
// whatever the parser still takes must stand up to the absolute form.
// TestDecodeMutatedRows calls it.
func checkMutatedRelativeRows(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(20))
	type target struct {
		blob []byte
		ref  *Reference
	}
	var targets []target
	seeds, ref := relativeSeeds(t)
	for _, seed := range seeds {
		targets = append(targets, target{seed[1], ref})
	}
	for len(targets) < 40 {
		base := randStateVector(rng)
		ref := decodedReference(t, base)
		if blob, ok := relativeBlob(randVariant(rng, base), ref); ok {
			targets = append(targets, target{blob, ref})
		}
	}
	taken := 0
	for _, tg := range targets {
		for i := 0; i < 400; i++ {
			m := bytes.Clone(tg.blob)
			at, c := rng.Intn(len(m)), byte(rng.Intn(256))
			switch rng.Intn(4) {
			case 0:
				m[at] = c
			case 1:
				m = append(m[:at], append([]byte{c}, m[at:]...)...)
			case 2:
				m = append(m[:at], m[at+1:]...)
			default:
				m = m[:at]
			}
			if checkRelative(t, m, tg.ref) {
				taken++
			}
		}
	}
	if taken == 0 {
		t.Error("no mutant was taken: the mutations never land inside the form")
	}
}

// randVariant derives an experiment's state from the reference's the way
// runs do — a few scan bits flipped, a value patched, resized, nil or
// gone — and now and then a state of another shape altogether.
func randVariant(rng *rand.Rand, ref *StateVector) *StateVector {
	if rng.Intn(8) == 0 {
		return randStateVector(rng)
	}
	s := &StateVector{Scan: bytes.Clone(ref.Scan)}
	if len(s.Scan) > 0 {
		for n := rng.Intn(4); n > 0; n-- {
			s.Scan[rng.Intn(len(s.Scan))] ^= 1 << rng.Intn(8)
		}
	}
	if rng.Intn(16) == 0 {
		s.Scan = append(s.Scan, 0)
	}
	if ref.Memory != nil {
		s.Memory = map[string][]byte{}
		for k, v := range ref.Memory {
			switch rng.Intn(8) {
			case 0: // gone
			case 1:
				s.Memory[k] = nil
			case 2:
				s.Memory[k] = append(bytes.Clone(v), byte(rng.Intn(256)))
			case 3:
				s.Memory[k] = []byte{}
			case 4:
				c := bytes.Clone(v)
				if len(c) > 0 {
					c[rng.Intn(len(c))] ^= 0x40
				}
				s.Memory[k] = c
			default:
				s.Memory[k] = v // shared, as a pruned row shares it
			}
		}
		if rng.Intn(16) == 0 {
			s.Memory["elsewhere"] = []byte{1}
		}
	}
	if ref.Outputs != nil {
		s.Outputs = map[uint16][]uint32{}
		for k, v := range ref.Outputs {
			switch rng.Intn(8) {
			case 0: // gone
			case 1:
				s.Outputs[k] = nil
			case 2:
				s.Outputs[k] = append(append([]uint32{}, v...), rng.Uint32())
			case 3:
				s.Outputs[k] = []uint32{}
			case 4:
				c := append([]uint32(nil), v...)
				if len(c) > 0 {
					c[rng.Intn(len(c))] += 1 << rng.Intn(32)
				}
				s.Outputs[k] = c
			default:
				s.Outputs[k] = v
			}
		}
	}
	return s
}

// TestRelativeRoundTripMatchesAbsolute is the round-trip oracle: a record
// stored relative to a reference and the same record stored whole decode to
// deep-equal records, nil and empty told apart as the absolute form tells
// them — for states near the reference, the reference's own, and states of
// another shape, which must fall back to the whole state by themselves.
func TestRelativeRoundTripMatchesAbsolute(t *testing.T) {
	var relative, absolute, shared int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := randStateVector(rng)
		writeRef, readRef := NewReference(base), decodedReference(t, base)
		rec := &ExperimentRecord{Name: "c/exp00001", Campaign: "c", Step: -1,
			Data: *randExperimentData(rng), State: *randVariant(rng, base)}
		rec.Data.Seq = rng.Intn(1000)
		whole := mustRow(rec)
		rec.Ref = writeRef
		stored := mustRow(rec)
		want, err := DecodeRow(&whole, nil)
		if err != nil {
			t.Errorf("absolute row: %v", err)
			return false
		}
		got, err := DecodeRow(&stored, readRef)
		if err != nil {
			t.Errorf("relative row: %v", err)
			return false
		}
		if got.Ref == nil {
			absolute++
			if !bytes.Equal(stored.Cols[5].B, whole.Cols[5].B) {
				t.Errorf("a row that does not fit the reference is not the whole state: %x", stored.Cols[5].B)
			}
		} else {
			relative++
			for k, v := range got.State.Memory {
				if Aliased(v, readRef.State.Memory[k]) && len(v) > 0 {
					shared++
				}
			}
		}
		got.Ref, got.ScanDiff = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("stored relative it reads back\n%#v\nstored whole\n%#v", got, want)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if relative < 500 || absolute < 100 || shared < 100 {
		t.Errorf("%d rows went relative, %d stayed whole, %d values shared with the reference: the generator has drifted",
			relative, absolute, shared)
	}
}

// TestEncodeRowKeepsAbsolute lists the rows that stay whole though a
// reference is at hand, and checks that /metrics tells the two kinds apart.
func TestEncodeRowKeepsAbsolute(t *testing.T) {
	before := telemetry.Default.Snapshot()
	defer func() {
		after := telemetry.Default.Snapshot()
		moved := func(name string) float64 { return after[name] - before[name] }
		if rel, abs, bytes := moved("goofi_sink_rows_relative_total"), moved("goofi_sink_rows_absolute_total"),
			moved("goofi_sink_state_bytes_total"); rel != 1 || abs != 7 || bytes < 7*20 {
			t.Errorf("counters moved by %v relative rows, %v absolute rows, %v state bytes; want 1, 7, and the blobs' bytes", rel, abs, bytes)
		}
	}()
	state := StateVector{Scan: []byte{1, 2}, Memory: map[string][]byte{"m": {3}}}
	ref := NewReference(&state)
	rec := func(edit func(*ExperimentRecord)) *ExperimentRecord {
		r := &ExperimentRecord{Name: "c/exp00000", Campaign: "c", Step: -1, State: state, Ref: ref,
			Data: ExperimentData{Seq: 0, Outcome: Outcome{Status: OutcomeCompleted}}}
		edit(r)
		return r
	}
	if row := mustRow(rec(func(*ExperimentRecord) {})); !isRelative(row.Cols[5].B) {
		t.Fatal("an end row with the reference's shape stayed whole")
	}
	for name, edit := range map[string]func(*ExperimentRecord){
		"the reference row":        func(r *ExperimentRecord) { r.Data.Seq = -1 },
		"a detail-mode step row":   func(r *ExperimentRecord) { r.Step = 3 },
		"an invalid run":           func(r *ExperimentRecord) { r.Data.Outcome.Status = OutcomeInvalidRun },
		"a scan of another length": func(r *ExperimentRecord) { r.State.Scan = []byte{1, 2, 3} },
		"a symbol the reference lacks": func(r *ExperimentRecord) {
			r.State.Memory = map[string][]byte{"m": {3}, "n": {4}}
		},
		"a port the reference lacks": func(r *ExperimentRecord) { r.State.Outputs = map[uint16][]uint32{1: {1}} },
		"no reference":               func(r *ExperimentRecord) { r.Ref = nil },
	} {
		r := rec(edit)
		row := mustRow(r)
		if want := r.State.appendJSON(nil); !bytes.Equal(row.Cols[5].B, want) {
			t.Errorf("%s: stateVector %x, want the absolute form %s", name, row.Cols[5].B, want)
		}
	}
}

// relativeStore holds camp-1 with a reference run and n experiments stored
// relative to it.
func relativeStore(t *testing.T, n int) (*Store, *Reference) {
	t.Helper()
	st := newCampaignStore(t)
	state := StateVector{Scan: []byte{0xaa, 0x55, 0x00, 0xff}, Memory: map[string][]byte{"out": {1, 2, 3, 4}},
		Outputs: map[uint16][]uint32{2: {7, 8, 9}}}
	ref := NewReference(&state)
	recs := []*ExperimentRecord{{Name: ReferenceName("camp-1"), Campaign: "camp-1", Step: -1,
		Data: ExperimentData{Seq: -1, Outcome: Outcome{Status: OutcomeCompleted}}, State: state}}
	for seq := 0; seq < n; seq++ {
		s := StateVector{Scan: bytes.Clone(state.Scan), Memory: state.Memory, Outputs: state.Outputs}
		s.Scan[seq%4] ^= 1 << (seq % 8)
		recs = append(recs, &ExperimentRecord{Name: ExperimentName("camp-1", seq), Campaign: "camp-1", Step: -1,
			Data: ExperimentData{Seq: seq, Injected: true, Outcome: Outcome{Status: OutcomeCompleted}}, State: s, Ref: ref})
	}
	if err := st.LogExperimentBatch(recs); err != nil {
		t.Fatal(err)
	}
	return st, ref
}

// TestRelativeRowIntegrity: a relative row is only as good as the
// reference row beside it. Without one, or with another one than it was
// encoded against, every read path fails with an error naming the
// experiment and the campaign; and the one delete that would orphan
// relative rows is refused.
func TestRelativeRowIntegrity(t *testing.T) {
	st, ref := relativeStore(t, 3)
	refName := ReferenceName("camp-1")

	// Intact: a pass shares the reference's values with the rows it yields,
	// and a single read resolves the reference by itself.
	recs, err := st.Experiments("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[1:] {
		if rec.Ref == nil || !Aliased(rec.State.Memory["out"], recs[0].State.Memory["out"]) ||
			!Aliased(rec.State.Outputs[2], recs[0].State.Outputs[2]) || len(rec.ScanDiff) != 1 {
			t.Errorf("%s: ref %v, scan diff %v, or values not shared with the pass's reference record", rec.Name, rec.Ref, rec.ScanDiff)
		}
	}
	one, err := st.GetExperiment(ExperimentName("camp-1", 1))
	if err != nil {
		t.Fatal(err)
	}
	one.Ref, one.ScanDiff, recs[2].Ref, recs[2].ScanDiff = nil, nil, nil, nil
	if !reflect.DeepEqual(one, recs[2]) {
		t.Errorf("GetExperiment %#v, EachExperiment %#v", one, recs[2])
	}

	if err := st.DeleteExperiment(refName); err == nil ||
		!strings.Contains(err.Error(), refName) || !strings.Contains(err.Error(), `"camp-1"`) {
		t.Fatalf("deleting a reference row relative rows point at: %v", err)
	}
	if _, err := st.GetExperiment(refName); err != nil {
		t.Fatalf("the refused delete removed the reference: %v", err)
	}

	// reads runs every read path over the damaged campaign and wants each to
	// fail naming the first relative experiment and the campaign.
	reads := func(what, want string) {
		t.Helper()
		_, errOne := st.GetExperiment(ExperimentName("camp-1", 0))
		errAll := st.EachExperiment("camp-1", func(*ExperimentRecord) error { return nil })
		for _, err := range []error{errOne, errAll} {
			if err == nil || !strings.Contains(err.Error(), ExperimentName("camp-1", 0)) ||
				!strings.Contains(err.Error(), `campaign "camp-1"`) || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %v, want one naming the experiment, the campaign and %q", what, err, want)
			}
		}
	}

	// Another reference than the rows were encoded against.
	other := StateVector{Scan: []byte{0xaa, 0x55, 0x00, 0xfe}, Memory: ref.State.Memory, Outputs: ref.State.Outputs}
	st.DB().MustExec(`UPDATE LoggedSystemState SET stateVector = ? WHERE experimentName = ?`,
		sqldb.Blob(other.appendJSON(nil)), sqldb.Text(refName))
	reads("swapped reference", "another reference run")

	// A reference row that does not decode.
	st.DB().MustExec(`UPDATE LoggedSystemState SET stateVector = ? WHERE experimentName = ?`,
		sqldb.Blob([]byte(`{"scan":`)), sqldb.Text(refName))
	_, err = st.GetExperiment(ExperimentName("camp-1", 0))
	if err == nil || !strings.Contains(err.Error(), "reference row of campaign") {
		t.Errorf("undecodable reference: %v", err)
	}

	// No reference row at all.
	st.DB().MustExec(`DELETE FROM LoggedSystemState WHERE experimentName = ?`, sqldb.Text(refName))
	reads("missing reference", "has no reference row")

	// A relative blob cut inside its header, and one damaged behind it.
	st2, ref2 := relativeStore(t, 1)
	name := ExperimentName("camp-1", 0)
	for _, blob := range [][]byte{{tagRelative, 1}, append(binary.LittleEndian.AppendUint32([]byte{tagRelative}, ref2.sum), 0x7f)} {
		st2.DB().MustExec(`UPDATE LoggedSystemState SET stateVector = ? WHERE experimentName = ?`,
			sqldb.Blob(blob), sqldb.Text(name))
		if _, err := st2.GetExperiment(name); err == nil || !strings.Contains(err.Error(), name) ||
			!strings.Contains(err.Error(), `campaign "camp-1"`) {
			t.Errorf("blob %x: error %v, want one naming the experiment and the campaign", blob, err)
		}
	}

	// Removing a campaign's rows together needs no order.
	if err := st2.DeleteExperiments("camp-1"); err != nil {
		t.Fatal(err)
	}
	if n, err := st2.CountExperiments("camp-1"); err != nil || n != 0 {
		t.Errorf("after DeleteExperiments: %d rows, %v", n, err)
	}
	// And a reference nothing points at goes like any row.
	st3, _ := relativeStore(t, 0)
	if err := st3.DeleteExperiment(refName); err != nil {
		t.Errorf("deleting a reference row nothing is relative to: %v", err)
	}
}

// TestEachExperimentDecodesAhead: a pass decoded ahead by several workers
// yields what one goroutine yields — the same records in the same order,
// each relative row with the reference's own scan, ScanState and EncodeRow
// applying its bits — and ends where the serial pass ends: at the first
// row that does not decode, or at the callback's first error, having
// called it with every record before and none after.
func TestEachExperimentDecodesAhead(t *testing.T) {
	const n = 20*decodeChunk + 7
	st, _ := relativeStore(t, n)
	type seen struct {
		name        string
		scan, state []byte
	}
	pass := func(procs int, stopAt int) (recs []seen, err error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		err = st.EachExperiment("camp-1", func(rec *ExperimentRecord) error {
			if len(recs) == stopAt {
				return os.ErrClosed
			}
			if rec.Ref != nil && !Aliased(rec.State.Scan, rec.Ref.State.Scan) {
				t.Errorf("%s: scan is not the reference's", rec.Name)
			}
			row, err := EncodeRow(rec)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, seen{rec.Name, rec.ScanState(), row.Cols[5].B})
			return nil
		})
		return recs, err
	}
	names := func(recs []seen) (out []string) {
		for _, r := range recs {
			out = append(out, r.name)
		}
		return out
	}
	whole, err := st.Experiments("camp-1")
	if err != nil || len(whole) != n+1 {
		t.Fatalf("%d records, %v", len(whole), err)
	}
	for _, procs := range []int{1, 4} {
		recs, err := pass(procs, -1)
		if err != nil || len(recs) != len(whole) {
			t.Fatalf("GOMAXPROCS %d: %d records, %v", procs, len(recs), err)
		}
		for i, rec := range whole {
			row, err := EncodeRow(rec)
			if err != nil {
				t.Fatal(err)
			}
			if got := recs[i]; got.name != rec.Name || !bytes.Equal(got.scan, rec.State.Scan) || !bytes.Equal(got.state, row.Cols[5].B) {
				t.Fatalf("GOMAXPROCS %d: record %d is %s scan %x state %x, Experiments has %s scan %x state %x",
					procs, i, got.name, got.scan, got.state, rec.Name, rec.State.Scan, row.Cols[5].B)
			}
		}
		if recs, err := pass(procs, 5*decodeChunk+3); err != os.ErrClosed || len(recs) != 5*decodeChunk+3 {
			t.Errorf("GOMAXPROCS %d: callback error after %d records: %v", procs, len(recs), err)
		}
	}
	// A damaged row stops every pass at it, with the serial pass's error.
	bad := ExperimentName("camp-1", 13*decodeChunk+5)
	st.DB().MustExec(`UPDATE LoggedSystemState SET stateVector = ? WHERE experimentName = ?`,
		sqldb.Blob([]byte{tagRelative, 1}), sqldb.Text(bad))
	serial, serialErr := pass(1, -1)
	if serialErr == nil || !strings.Contains(serialErr.Error(), bad) || len(serial) != 13*decodeChunk+6 {
		t.Fatalf("serial pass over a damaged row: %d records, %v", len(serial), serialErr)
	}
	for i := 0; i < 5; i++ {
		recs, err := pass(4, -1)
		if err == nil || err.Error() != serialErr.Error() || !slices.Equal(names(recs), names(serial)) {
			t.Fatalf("parallel pass over a damaged row: %d records, %v; serial %d, %v",
				len(recs), err, len(serial), serialErr)
		}
	}
}
