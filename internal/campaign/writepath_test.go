package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"goofi/internal/bitvec"
	"goofi/internal/sqldb"
)

// TestWritePathAllocs pins what storing a batch of LoggedSystemState rows
// allocates, the log record included: per row the primary-key string, and
// per batch the one allocation that holds its blobs, the one that holds its
// values, which the table keeps as its rows. Neither a row's values nor an
// index key of a campaign that has rows are allocated again. Counted at 16
// and at 64 rows a batch: the difference is the cost of a row, what is left
// the cost of a batch. Both take a share of the table's growth — its rows,
// its primary-key map and the campaign's index bucket grow by a factor as
// rows come — which is a few hundredths of an allocation a row at these
// sizes. The race detector's sync.Pool drops items at random, so under it
// the test skips; make tier1 runs it without.
func TestWritePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const runs = 40
	ref := fromRefReference(t)
	allocs := func(batch int) float64 {
		st := newCampaignStore(t)
		st.db.AttachWAL(sqldb.NewWAL(io.Discard, sqldb.SyncNever))
		// Three pruned rows to an emulated one, as on sort16 and the PID
		// loop: all of them stored relative.
		recs := make([]*ExperimentRecord, (runs+1)*batch)
		for i := range recs {
			recs[i] = fromRefRecord(ref, i, bitvec.MarshaledHeaderBits+i%100)
			if i%4 == 0 {
				recs[i] = spelledOut(t, recs[i])
			}
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if err := st.LogExperimentBatch(recs[next : next+batch]); err != nil {
				t.Fatal(err)
			}
			next += batch
		})
	}
	small, large := allocs(16), allocs(64)
	perRow := (large - small) / 48
	perBatch := small - 16*perRow
	t.Logf("%.2f allocations a row and %.2f a batch: %.2f a batch of 16, %.2f a batch of 64",
		perRow, perBatch, small, large)
	if perRow > 1.05 || perBatch > 4 {
		t.Errorf("%.2f allocations a row and %.2f a batch; want at most 1 (the primary key) and 4, growth aside",
			perRow, perBatch)
	}
}

// TestCursorJSONMatchesMarshal: the cursor a writer appends into its
// scratch is, byte for byte, what json.Marshal makes of it — over random
// identities, completed sets handed over or not (neither is stored), and
// names json escapes.
func TestCursorJSONMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := []string{"c", "camp-1", `a"b`, `a\b`, "a<b", "a>b", "a&b", "tab\there", "ünïcode", "bad\xffutf8",
		"line sep", "\x00", "\x1f", "\x7f", ""}
	var scratch []byte
	for trial := 0; trial < 1000; trial++ {
		cp := &Checkpoint{Campaign: names[rng.Intn(len(names))], PlanHash: fmt.Sprintf("%x", rng.Uint64()),
			Seed: rng.Int63() - rng.Int63(), Experiments: rng.Intn(100_000), Reference: rng.Intn(2) == 0}
		if rng.Intn(8) == 0 {
			cp.PlanHash = names[rng.Intn(len(names))]
		}
		for range rng.Intn(60) {
			seq := rng.Intn(200)
			if rng.Intn(2) == 0 {
				cp.Ranges = cp.Ranges.Add(seq)
			} else {
				cp.Completed = append(cp.Completed, seq)
			}
		}
		want, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		scratch = cp.appendJSON(scratch[:0])
		if !bytes.Equal(scratch, want) {
			t.Fatalf("trial %d: appended\n%s\nwant\n%s", trial, scratch, want)
		}
	}
}

// TestSinksShareAStore: two campaigns' sinks writing over one store at
// once, as goofid's tenants do, each writer with its own encoder, leave
// each campaign the rows and the cursor that writing the two campaigns one
// after the other leaves. Run it under the race detector.
func TestSinksShareAStore(t *testing.T) {
	ref := fromRefReference(t)
	campaigns := []string{"camp-1", "camp-2"}
	const n = 500
	write := func(st *Store, camp string) error {
		s := NewBatchingSink(st, 0)
		for seq := 0; seq < n; seq++ {
			rec := fromRefRecord(ref, seq, bitvec.MarshaledHeaderBits+seq%100)
			rec.Name, rec.Campaign = ExperimentName(camp, seq), camp
			if seq%3 == 0 {
				rec = spelledOut(t, rec)
			}
			if err := s.LogExperiment(rec); err != nil {
				return err
			}
			if seq%16 == 15 {
				cp := &Checkpoint{Campaign: camp, PlanHash: "h-" + camp, Seed: 7, Experiments: n, Reference: true}
				if err := s.SaveCheckpoint(cp); err != nil {
					return err
				}
			}
		}
		return s.Close()
	}
	store := func() *Store {
		st := newCampaignStore(t)
		c := testCampaign()
		c.Name = campaigns[1]
		if err := st.PutCampaign(c); err != nil {
			t.Fatal(err)
		}
		return st
	}
	dump := func(st *Store, camp string) string {
		var sb strings.Builder
		r, err := st.db.Query(`SELECT * FROM LoggedSystemState WHERE campaignName = ?`, sqldb.Text(camp))
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range r.Rows {
			for _, v := range row {
				sb.WriteString(v.String())
			}
			sb.WriteByte('\n')
		}
		r, err = st.db.Query(`SELECT * FROM CampaignCheckpoint WHERE campaignName = ?`, sqldb.Text(camp))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range r.Rows[0] {
			sb.WriteString(v.String())
		}
		return sb.String()
	}
	serial := store()
	for _, camp := range campaigns {
		if err := write(serial, camp); err != nil {
			t.Fatal(err)
		}
	}
	shared := store()
	errs := make(chan error, len(campaigns))
	for _, camp := range campaigns {
		go func() { errs <- write(shared, camp) }()
	}
	for range campaigns {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, camp := range campaigns {
		if got, want := dump(shared, camp), dump(serial, camp); got != want {
			t.Errorf("%s: the rows written beside another campaign's differ from those written alone", camp)
		}
		if n, err := shared.CountExperiments(camp); err != nil || n != 500 {
			t.Errorf("%s: %d rows (%v), want 500", camp, n, err)
		}
	}
	if err := shared.db.CheckIntegrity(); err != nil {
		t.Error(err)
	}
}
