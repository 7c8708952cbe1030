package campaign

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"goofi/internal/sqldb"
)

// The parser in decode.go must be observationally identical to
// encoding/json on everything it accepts, and must accept everything the
// appenders in codec.go emit short of an escaped string. encoding/json is
// the reference throughout.

// checkDecode compares one of the two BLOB decoders with encoding/json on
// b: both fail, the decoder with encoding/json's text behind its prefix,
// or both produce the same value. It reports whether the canonical-form
// parser took the blob.
func checkDecode[T any](t *testing.T, b []byte, parse func([]byte, *T) bool,
	decode func([]byte, *T) error, errPrefix string) (fast bool) {
	t.Helper()
	var want, probe, got T
	wantErr := json.Unmarshal(b, &want)
	fast = parse(b, &probe)
	if fast && wantErr != nil {
		t.Fatalf("parser accepted what encoding/json refuses (%v):\n%s", wantErr, b)
	}
	err := decode(b, &got)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decode error %v, encoding/json error %v:\n%s", err, wantErr, b)
	}
	if err != nil {
		if want := errPrefix + wantErr.Error(); err.Error() != want {
			t.Fatalf("error text %q, want %q", err, want)
		}
		return fast
	}
	if !reflect.DeepEqual(&got, &want) {
		t.Fatalf("decoded\n%#v\nencoding/json\n%#v\nfrom %s", got, want, b)
	}
	return fast
}

func checkExperimentData(t *testing.T, b []byte) (fast bool) {
	t.Helper()
	return checkDecode(t, b, parseExperimentData, decodeExperimentData, "campaign: unmarshal experiment data: ")
}

func checkStateVector(t *testing.T, b []byte) (fast bool) {
	t.Helper()
	return checkDecode(t, b, parseStateVector, decodeStateVector, "campaign: decode state vector: ")
}

// TestDecodeMatchesEncodingJSON is the codec property run in the other
// direction: whatever the appenders emit decodes to what json.Unmarshal
// makes of the same bytes, and only an escaped string sends a blob to the
// fallback.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	var blobs, fallbacks, escaped int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := randExperimentData(rng).appendJSON(nil)
		state := randStateVector(rng).appendJSON(nil)
		for _, c := range []struct {
			blob []byte
			fast bool
		}{
			{data, checkExperimentData(t, data)},
			{state, checkStateVector(t, state)},
		} {
			blobs++
			esc := bytes.IndexByte(c.blob, '\\') >= 0
			if esc {
				escaped++
			}
			if !c.fast {
				fallbacks++
			}
			if c.fast == esc {
				t.Errorf("canonical-form parser took it: %v, escapes in it: %v\n%s", c.fast, esc, c.blob)
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if fallbacks != escaped || escaped == 0 || escaped == blobs {
		t.Errorf("%d blobs, %d with escapes, %d fallbacks: want every escape-free blob parsed and both kinds present",
			blobs, escaped, fallbacks)
	}
}

// hostileBlobs are inputs one step off the canonical form, in the slots
// of a stateVector and of an experimentData BLOB.
var hostileBlobs = []string{
	// integers
	`{"outputs":{"1":[4294967296]}}`,
	`{"outputs":{"1":[18446744073709551616]}}`,
	`{"outputs":{"1":[-0]}}`,
	`{"outputs":{"1":[007]}}`,
	`{"outputs":{"1":[1.0]}}`,
	`{"outputs":{"1":[1e3]}}`,
	`{"outputs":{"1":[1,]}}`,
	`{"outputs":{"1":[,1]}}`,
	`{"outputs":{"1":[1 ,2]}}`,
	`{"outputs":{"1":[1,2]],"2":[3]}}`,
	`{"outputs":{"65536":[1]}}`,
	`{"outputs":{"01":[1]}}`,
	`{"outputs":{"-1":[1]}}`,
	`{"outputs":{"2":[1],"1":[2]}}`,
	`{"outputs":{"1":[1],"1":[2]}}`,
	`{"outputs":{}}`,
	`{"outputs":null}`,
	`{"outputs":{"1":null,"2":[]}}`,
	// base64 and strings
	`{"scan":""}`,
	`{"scan":null}`,
	`{"scan":"AAA"}`,
	`{"scan":"AAAA\nAAAA"}`,
	"{\"scan\":\"AAAA\nAAAA\"}",
	"{\"scan\":\"AAAA\rAAAA\"}",
	`{"scan":"AA=A"}`,
	`{"scan":"AAAA","scan":"BBBB"}`,
	`{"memory":{"a":"AA==","a":"AQ=="}}`,
	`{"memory":{"b":"AA==","a":"AQ=="}}`,
	`{"memory":{"a\u0062":"AA=="}}`,
	"{\"memory\":{\"\xff\":\"AA==\"}}",
	`{"memory":{"é":"AA==","z":null,"zz":""}}`,
	`{"memory":{}}`,
	// shape
	`{"memory":{"a":"AA=="},"scan":"AAAA"}`,
	`{"Scan":"AAAA"}`,
	`{"scan":"AAAA","extra":1}`,
	` {"scan":"AAAA"}`,
	`{"scan":"AAAA"} `,
	`{"scan":"AAAA"}{}`,
	`{"scan":"AAAA"`,
	`{,"scan":"AAAA"}`,
	`{}`, `null`, `[]`, ``, `{`,
	// experimentData
	`{"seq":9223372036854775808,"fault":{"kind":"transient","bits":[1]},"trigger":{"kind":"cycle"},"injected":true,"outcome":{"status":"completed","cycles":1}}`,
	`{"seq":-9223372036854775808,"fault":{"kind":"transient","bits":[1]},"trigger":{"kind":"cycle"},"injected":true,"outcome":{"status":"completed","cycles":1}}`,
	`{"seq":-0,"fault":{"kind":"transient","bits":[1]},"trigger":{"kind":"cycle"},"injected":true,"outcome":{"status":"completed","cycles":1}}`,
	`{"seq":1,"fault":{"kind":"transient","bits":[1.5]},"trigger":{"kind":"cycle"},"injected":true,"outcome":{"status":"completed","cycles":1}}`,
	`{"seq":1,"fault":{"kind":"transient","bits":[]},"locationNames":[],"trigger":{"kind":"cycle"},"injected":true,"outcome":{"status":"completed","cycles":1}}`,
	`{"seq":1,"fault":{"kind":"transient","bits":null,"activeProb":1e-05},"trigger":{"kind":"cycle"},"injected":true,"outcome":{"status":"completed","cycles":1}}`,
	`{"seq":1,"fault":{"kind":"transient","bits":null,"activeProb":1e400},"trigger":{"kind":"cycle"},"injected":true,"outcome":{"status":"completed","cycles":1}}`,
	`{"seq":1,"fault":{"kind":"transient","bits":null,"activeProb":01.5},"trigger":{"kind":"cycle"},"injected":true,"outcome":{"status":"completed","cycles":1}}`,
	`{"seq":1,"fault":{"kind":"transient","bits":null,"activeProb":.5},"trigger":{"kind":"cycle"},"injected":true,"outcome":{"status":"completed","cycles":1}}`,
	`{"seq":1,"fault":{"kind":"transient","bits":null,"activeProb":-1.5E+2},"trigger":{"kind":"cycle"},"injected":true,"outcome":{"status":"completed","cycles":1}}`,
	`{"seq":1,"fault":{"kind":"transient","bits":[1]},"trigger":{"kind":"cycle","addr":4294967296},"injected":true,"outcome":{"status":"completed","cycles":1}}`,
	`{"seq":1,"fault":{"kind":"transient","bits":[1]},"trigger":{"kind":"cycle","cycle":0,"write":false},"injected":true,"outcome":{"status":"completed","cycles":1}}`,
	`{"seq":1,"fault":{"kind":"transient","bits":[1]},"trigger":{"kind":"cycle","count":2,"cycle":1},"injected":true,"outcome":{"status":"completed","cycles":1}}`,
	`{"seq":1,"fault":{"kind":"transient","bits":[1]},"trigger":{"kind":"cycle"},"injected":true,"outcome":{"status":"completed","cycles":18446744073709551615}}`,
	`{"seq":1,"fault":{"kind":"transient","bits":[1]},"trigger":{"kind":"cycle"},"injected":true,"outcome":{"status":"completed","cycles":18446744073709551616}}`,
	`{"seq":1,"fault":{"kind":"transient","bits":[1]},"trigger":{"kind":"cycle"},"injected":true,"outcome":{"status":"completed","cycles":1},"seq":2}`,
	`{"seq":1,"fault":{"kind":"transient","bits":[1]},"trigger":{"kind":"cycle"},"injected":true,"outcome":{"status":"completed","cycles":1}}x`,
	`{"seq":1,"fault":{"kind":"tran\"sient","bits":[1]},"trigger":{"kind":"cycle"},"injected":true,"outcome":{"status":"completed","cycles":1}}`,
	`{"seq":1,"fault":{"kind":"transient","bits":[1]},"trigger":{"kind":"cycle"},"injected":1,"outcome":{"status":"completed","cycles":1}}`,
	`{"seq":1,"fault":{"kind":"transient","bits":[1]},"trigger":{"kind":"cycle"},"injected":true,"outcome":{"status":"completed"}}`,
	`{"seq":1}`,
}

func TestDecodeHostileBlobs(t *testing.T) {
	ref := hostileReference(t)
	for _, s := range hostileBlobs {
		checkStateVector(t, []byte(s))
		checkExperimentData(t, []byte(s))
		checkRelative(t, []byte(s), ref)
	}
	checkHostileRelative(t)
}

// rowSeeds returns the real absolute rows under testdata/rows — a thor
// experiment, a reference run, a detail-mode step, an invalid run and a
// live-process experiment, as the parent of this decoder's first commit
// stored them — as (experimentData, stateVector) pairs. relativeSeeds
// returns the relative ones.
func rowSeeds(t testing.TB) [][2][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join("testdata", "rows", "*.state.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no seed rows: %v", err)
	}
	var out [][2][]byte
	for _, n := range names {
		state, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(strings.TrimSuffix(n, ".state.json") + ".data.json")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2][]byte{data, state})
	}
	return out
}

// TestDecodeRealRowsTakeFastPath pins that rows as campaigns store them
// are canonical: none of them reaches encoding/json.
func TestDecodeRealRowsTakeFastPath(t *testing.T) {
	for _, seed := range rowSeeds(t) {
		if !checkExperimentData(t, seed[0]) {
			t.Errorf("experimentData fell back to encoding/json:\n%s", seed[0])
		}
		if !checkStateVector(t, seed[1]) {
			t.Errorf("stateVector fell back to encoding/json:\n%s", seed[1])
		}
	}
	checkRealRelativeRows(t)
}

// TestDecodeMutatedRows damages canonical blobs a byte at a time —
// overwrite, insert, delete, truncate — which lands on the edges of the
// canonical form far more often than random bytes do.
func TestDecodeMutatedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	blobs := rowSeeds(t)
	for i := 0; i < 20; i++ {
		blobs = append(blobs, [2][]byte{randExperimentData(rng).appendJSON(nil), randStateVector(rng).appendJSON(nil)})
	}
	const alphabet = `{}[]":,\-+.eE0123456789=/ anutrlfs` + "\n\x00\xff"
	mutate := func(b []byte) []byte {
		m := append([]byte(nil), b...)
		if len(m) == 0 {
			return m
		}
		at, c := rng.Intn(len(m)), alphabet[rng.Intn(len(alphabet))]
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
		return m
	}
	for _, pair := range blobs {
		for i := 0; i < 400; i++ {
			checkExperimentData(t, mutate(pair[0]))
			checkStateVector(t, mutate(pair[1]))
		}
	}
	checkMutatedRelativeRows(t)
}

// FuzzDecodeRow: for arbitrary bytes in either BLOB, the row decoder and
// encoding/json both fail, with the same text, or agree on the value; and
// whatever the relative parser makes of the state bytes against the
// quickstart reference stands up to the absolute form.
func FuzzDecodeRow(f *testing.F) {
	for _, seed := range rowSeeds(f) {
		f.Add(seed[0], seed[1])
	}
	for _, s := range hostileBlobs {
		f.Add([]byte(s), []byte(s))
	}
	relative, ref := relativeSeeds(f)
	for _, seed := range relative {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, data, state []byte) {
		checkExperimentData(t, data)
		checkStateVector(t, state)
		checkRelative(t, state, ref)
	})
}

// newCampaignStore returns a store holding testCampaign ("camp-1") and
// its target, ready for LoggedSystemState rows.
func newCampaignStore(t *testing.T) *Store {
	t.Helper()
	st := newStore(t)
	if err := st.PutTargetSystem(testTarget()); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign(testCampaign()); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestEachExperimentOrder pins sequence order past the five digits names
// are padded to: by name, exp100000 sorts before exp99999.
func TestEachExperimentOrder(t *testing.T) {
	st := newCampaignStore(t)
	seqs := []int{100001, 99999, -1, 100000}
	for _, seq := range seqs {
		rec := &ExperimentRecord{Name: ExperimentName("camp-1", seq), Campaign: "camp-1", Step: -1,
			Data: ExperimentData{Seq: seq}}
		if seq < 0 {
			rec.Name = ReferenceName("camp-1")
		}
		if err := st.LogExperiment(rec); err != nil {
			t.Fatal(err)
		}
	}
	// A re-run shares its experiment's sequence number and follows it.
	rerun := &ExperimentRecord{Name: ExperimentName("camp-1", 99999) + "/rerun1", Parent: ExperimentName("camp-1", 99999),
		Campaign: "camp-1", Step: -1, Data: ExperimentData{Seq: 99999}}
	if err := st.LogExperiment(rerun); err != nil {
		t.Fatal(err)
	}
	want := []string{"camp-1/reference", "camp-1/exp99999", "camp-1/exp99999/rerun1", "camp-1/exp100000", "camp-1/exp100001"}
	var got []string
	err := st.EachExperiment("camp-1", func(r *ExperimentRecord) error {
		got = append(got, r.Name)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("EachExperiment order %v, want %v", got, want)
	}
	recs, err := st.Experiments("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.Name != want[i] {
			t.Errorf("Experiments[%d] = %s, want %s", i, r.Name, want[i])
		}
	}
	if n, err := st.CountExperiments("camp-1"); err != nil || n != len(want) {
		t.Errorf("CountExperiments = %d, %v, want %d", n, err, len(want))
	}
}

// TestEachExperimentStopsOnError: the callback's error ends the pass and
// comes back as it is; a row that cannot be decoded is an error too.
func TestEachExperimentStopsOnError(t *testing.T) {
	st := newCampaignStore(t)
	for seq := 0; seq < 3; seq++ {
		if err := st.LogExperiment(&ExperimentRecord{Name: ExperimentName("camp-1", seq), Campaign: "camp-1",
			Step: -1, Data: ExperimentData{Seq: seq}}); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	err := st.EachExperiment("camp-1", func(*ExperimentRecord) error {
		calls++
		return os.ErrClosed
	})
	if err != os.ErrClosed || calls != 1 {
		t.Errorf("err %v after %d calls, want os.ErrClosed after 1", err, calls)
	}
	st.DB().MustExec(`INSERT INTO LoggedSystemState VALUES (?, ?, ?, ?, ?, ?)`,
		sqldb.Text("camp-1/bad"), sqldb.Null(), sqldb.Text("camp-1"), sqldb.Int(-1),
		sqldb.Blob([]byte(`{"seq":7,"fault":`)), sqldb.Blob([]byte(`{}`)))
	err = st.EachExperiment("camp-1", func(*ExperimentRecord) error { return nil })
	if err == nil || !strings.HasPrefix(err.Error(), "campaign: unmarshal experiment data: ") {
		t.Errorf("undecodable row: err %v", err)
	}
}
