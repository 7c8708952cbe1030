package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"goofi/internal/sqldb"
)

func testCheckpoint() *Checkpoint {
	return &Checkpoint{
		Campaign:    "camp-1",
		PlanHash:    "abc123",
		Seed:        42,
		Experiments: 10,
		Reference:   true,
	}
}

// TestCheckpointDone: a recovered cursor's completed set answers which
// experiments are done and how many.
func TestCheckpointDone(t *testing.T) {
	cp := testCheckpoint()
	cp.Ranges = SeqRanges{{0, 0}, {2, 2}, {5, 7}}
	for _, seq := range []int{0, 2, 5, 6, 7} {
		if !cp.Ranges.Has(seq) {
			t.Errorf("Has(%d) = false, want true", seq)
		}
	}
	for _, seq := range []int{-1, 1, 3, 4, 8, 100} {
		if cp.Ranges.Has(seq) {
			t.Errorf("Has(%d) = true, want false", seq)
		}
	}
	if n := cp.Ranges.Len(); n != 5 {
		t.Errorf("Len = %d, want 5", n)
	}
	if n := SeqRanges(nil).Len(); n != 0 || SeqRanges(nil).Has(0) {
		t.Errorf("empty set: Len %d, Has(0) %v", n, SeqRanges(nil).Has(0))
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	st := sinkFixture(t)
	if got, err := st.GetCheckpoint("camp-1"); err != nil || got != nil {
		t.Fatalf("before save: got %+v, %v; want nil, nil", got, err)
	}
	cp := testCheckpoint()
	if err := st.SaveCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	got, err := st.GetCheckpoint("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || fmt.Sprint(*got) != fmt.Sprint(*cp) {
		t.Errorf("round trip: got %+v, want %+v", got, cp)
	}
	// A second save is an update, not a duplicate-key failure.
	cp.PlanHash = "def456"
	if err := st.SaveCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	got, err = st.GetCheckpoint("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	if got.PlanHash != "def456" {
		t.Errorf("after update: got %+v", got)
	}
	if err := st.DeleteCheckpoint("camp-1"); err != nil {
		t.Fatal(err)
	}
	if got, err := st.GetCheckpoint("camp-1"); err != nil || got != nil {
		t.Errorf("after delete: got %+v, %v; want nil, nil", got, err)
	}
	// Deleting an absent checkpoint is not an error.
	if err := st.DeleteCheckpoint("camp-1"); err != nil {
		t.Errorf("second delete: %v", err)
	}
}

func TestSaveCheckpointRequiresCampaign(t *testing.T) {
	st := newStore(t) // no campaign rows at all
	cp := testCheckpoint()
	cp.Campaign = "no-such-campaign"
	if err := st.SaveCheckpoint(cp); err == nil {
		t.Error("checkpoint for unknown campaign accepted (FK not enforced)")
	}
}

// TestRecoverCursorUnionsDurableRows: the completed set is the durable
// end rows and nothing else. Rows 0..2 and the reference are stored; the
// cursor a build that still stored the set left behind names 0 and 5, but
// no row 5 exists, so 5 is not complete (the union with that stored set
// made it [0 1 2 5]). The cursor's identity is kept.
func TestRecoverCursorUnionsDurableRows(t *testing.T) {
	st := sinkFixture(t)
	if err := st.SaveCheckpoint(&Checkpoint{Campaign: "camp-1", PlanHash: "h1", Seed: 42, Experiments: 10}); err != nil {
		t.Fatal(err)
	}
	setCursorBlob(t, st, `{"campaign":"camp-1","planHash":"h1","seed":42,"experiments":10,"reference":false,"completedRanges":[[0,0],[5,5]]}`)
	if err := st.LogExperiment(&ExperimentRecord{
		Name: ReferenceName("camp-1"), Campaign: "camp-1", Step: -1,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.LogExperiment(sinkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := st.RecoverCursor("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Reference {
		t.Error("reference row logged but Reference = false")
	}
	if cp.PlanHash != "h1" || cp.Seed != 42 || cp.Experiments != 10 {
		t.Errorf("identity fields lost: %+v", cp)
	}
	if want := "[[0 2]]"; fmt.Sprint(cp.Ranges) != want {
		t.Errorf("Ranges = %v, want %v", cp.Ranges, want)
	}
}

// TestRecoverCursorForgetsDeletedRow: a row deleted after a cursor save
// named it — `goofi resume -retry-invalid` deletes invalid runs — is not
// complete, whatever that cursor says, so the next run re-attempts it
// even when it ends before saving a cursor of its own.
func TestRecoverCursorForgetsDeletedRow(t *testing.T) {
	st := sinkFixture(t)
	for i := 0; i < 6; i++ {
		if err := st.LogExperiment(sinkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.SaveCheckpoint(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	setCursorBlob(t, st, `{"campaign":"camp-1","planHash":"abc123","seed":42,"experiments":10,"reference":true,"completedRanges":[[0,5]]}`)
	if err := st.DeleteExperiment(ExperimentName("camp-1", 3)); err != nil {
		t.Fatal(err)
	}
	cp, err := st.RecoverCursor("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	if want := "[[0 2] [4 5]]"; fmt.Sprint(cp.Ranges) != want {
		t.Errorf("Ranges = %v, want %v (row 3 was deleted)", cp.Ranges, want)
	}
}

// TestRecoverCursorBoundedByPlan: end rows numbered past the campaign's
// experiment count are not part of its plan, and not complete.
func TestRecoverCursorBoundedByPlan(t *testing.T) {
	st := sinkFixture(t) // a campaign of 10 experiments
	for _, seq := range []int{8, 9, 10, 42} {
		if err := st.LogExperiment(sinkRecord(seq)); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := st.RecoverCursor("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	if want := "[[8 9]]"; fmt.Sprint(cp.Ranges) != want {
		t.Errorf("Ranges = %v, want %v", cp.Ranges, want)
	}
}

// setCursorBlob overwrites camp-1's stored cursor with blob, as an older
// build or a damaged store could have left it.
func setCursorBlob(t *testing.T, st *Store, blob string) {
	t.Helper()
	if _, err := st.DB().Exec(`UPDATE CampaignCheckpoint SET cursor = ? WHERE campaignName = ?`,
		sqldb.Blob([]byte(blob)), sqldb.Text("camp-1")); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverCursorWithoutCheckpointRow recovers purely from logged
// rows — the crash happened before the first cursor write.
func TestRecoverCursorWithoutCheckpointRow(t *testing.T) {
	st := sinkFixture(t)
	if err := st.LogExperiment(sinkRecord(3)); err != nil {
		t.Fatal(err)
	}
	cp, err := st.RecoverCursor("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	if cp.Reference {
		t.Error("no reference row but Reference = true")
	}
	if want := "[[3 3]]"; fmt.Sprint(cp.Ranges) != want {
		t.Errorf("Ranges = %v, want %v", cp.Ranges, want)
	}
	if cp.PlanHash != "" {
		t.Errorf("PlanHash = %q, want empty (no stored checkpoint)", cp.PlanHash)
	}
}

func TestRecoverCursorPrunesOrphanTraces(t *testing.T) {
	st := sinkFixture(t)
	// Experiment 0 finished: end row plus detail steps.
	if err := st.LogExperiment(sinkRecord(0)); err != nil {
		t.Fatal(err)
	}
	done := ExperimentName("camp-1", 0)
	for step := 0; step < 3; step++ {
		if err := st.LogExperiment(&ExperimentRecord{
			Name:     fmt.Sprintf("%s/step%06d", done, step),
			Parent:   done,
			Campaign: "camp-1",
			Step:     step,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Experiment 1 died mid-run: steps on disk, no end row.
	orphan := ExperimentName("camp-1", 1)
	for step := 0; step < 2; step++ {
		if err := st.LogExperiment(&ExperimentRecord{
			Name:     fmt.Sprintf("%s/step%06d", orphan, step),
			Parent:   orphan,
			Campaign: "camp-1",
			Step:     step,
		}); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := st.RecoverCursor("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	if want := "[[0 0]]"; fmt.Sprint(cp.Ranges) != want {
		t.Errorf("Ranges = %v, want %v (orphan must not count)", cp.Ranges, want)
	}
	count := func(parent string) int {
		r, err := st.db.Query(`SELECT COUNT(*) FROM LoggedSystemState
			WHERE parentExperiment = ? AND step >= 0`, sqldb.Text(parent))
		if err != nil {
			t.Fatal(err)
		}
		return int(r.Rows[0][0].I)
	}
	if n := count(done); n != 3 {
		t.Errorf("finished experiment lost its trace: %d step rows, want 3", n)
	}
	if n := count(orphan); n != 0 {
		t.Errorf("orphan trace survived: %d step rows, want 0", n)
	}
}

// TestBatchingSinkSaveCheckpointFlushesFirst checks the crash-safety
// invariant at the sink's durability point: SaveCheckpoint only queues the
// cursor behind the records logged before it, and once Flush has returned
// both are in the store — the records first, which the log's order shows.
func TestBatchingSinkSaveCheckpointFlushesFirst(t *testing.T) {
	st := sinkFixture(t)
	var log bytes.Buffer
	st.db.AttachWAL(sqldb.NewWAL(&log, sqldb.SyncAlways))
	s := NewBatchingSink(st, 1000) // batch never fills on its own
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.LogExperiment(sinkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	cp := testCheckpoint()
	if err := s.SaveCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Experiments("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Errorf("cursor flushed with %d durable records, want 5", len(recs))
	}
	got, err := st.GetCheckpoint("camp-1")
	if err != nil || got == nil {
		t.Fatalf("checkpoint missing after Flush: %+v, %v", got, err)
	}
	rows := bytes.Index(log.Bytes(), []byte("INSERT INTO LoggedSystemState"))
	cursor := bytes.Index(log.Bytes(), []byte("CampaignCheckpoint"))
	if rows < 0 || cursor < rows {
		t.Errorf("log has the rows at byte %d and the cursor at byte %d; the rows must come first", rows, cursor)
	}
}

// brokenDisk fails every write, standing in for a full or dead device
// under the write-ahead log.
type brokenDisk struct{}

func (brokenDisk) Write(p []byte) (int, error) {
	return 0, fmt.Errorf("simulated disk full")
}

// TestSinkPropagatesWALFailure drives a write failure from the bottom of
// the stack (the WAL's writer) up through the batching sink: the flush
// fails with a useful error, the sink stays poisoned, and SaveCheckpoint
// refuses to queue a cursor that would claim durability it doesn't have.
func TestSinkPropagatesWALFailure(t *testing.T) {
	st := sinkFixture(t) // schema + fixtures written before the disk "fails"
	st.db.AttachWAL(sqldb.NewWAL(brokenDisk{}, sqldb.SyncAlways))
	s := NewBatchingSink(st, 2)
	_ = s.LogExperiment(sinkRecord(0))
	_ = s.LogExperiment(sinkRecord(1)) // completes the batch, hits the WAL
	err := s.Flush()
	if err == nil {
		t.Fatal("flush over a failed WAL returned nil")
	}
	for _, want := range []string{"wal", "disk full"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("flush error %q does not mention %q", err, want)
		}
	}
	if err := s.SaveCheckpoint(testCheckpoint()); err == nil {
		t.Error("SaveCheckpoint queued a cursor through a poisoned sink")
	}
	if err := s.LogExperiment(sinkRecord(2)); err == nil {
		t.Error("poisoned sink accepted another record")
	}
	if err := s.Close(); err == nil {
		t.Error("poisoned sink closed without error")
	}
}

// TestSinkKeepsQueuedCheckpointError: a cursor save returns before its
// write is attempted, so a write that then fails must come back from every
// later call — and the cursor whose rows failed must not have been stored.
func TestSinkKeepsQueuedCheckpointError(t *testing.T) {
	for _, next := range []string{"LogExperiment", "SaveCheckpoint", "Flush", "Close"} {
		st := sinkFixture(t)
		s := NewBatchingSink(st, 1000)
		if err := s.LogExperiment(sinkRecord(0)); err != nil {
			t.Fatal(err)
		}
		st.db.AttachWAL(sqldb.NewWAL(brokenDisk{}, sqldb.SyncAlways))
		if err := s.SaveCheckpoint(testCheckpoint()); err != nil {
			t.Fatalf("queueing the cursor: %v", err)
		}
		// Wait for the writer without going through the sink's own calls.
		s.mu.Lock()
		for s.written < s.queued {
			s.cond.Wait()
		}
		s.mu.Unlock()
		var err error
		switch next {
		case "LogExperiment":
			err = s.LogExperiment(sinkRecord(1))
		case "SaveCheckpoint":
			err = s.SaveCheckpoint(testCheckpoint())
		case "Flush":
			err = s.Flush()
		case "Close":
			err = s.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "disk full") {
			t.Errorf("%s after a failed queued save returned %v", next, err)
		}
		if cerr := s.Close(); cerr == nil {
			t.Errorf("Close after %s lost the error", next)
		}
		if cp, _ := st.GetCheckpoint("camp-1"); cp != nil {
			t.Errorf("cursor %+v stored although its rows' write failed", cp)
		}
	}
}

// TestSeqRangesAdd: whatever order sequence numbers arrive in, the runs are
// the ones the sorted list collapses to, and Has and Len answer for the
// numbers added.
func TestSeqRangesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		var r SeqRanges
		var in [50]bool
		for i := 0; i < n; i++ {
			seq := rng.Intn(50)
			r = r.Add(seq)
			in[seq] = true
		}
		var want SeqRanges
		count := 0
		for seq := 0; seq < 50; seq++ {
			if r.Has(seq) != in[seq] {
				t.Fatalf("trial %d: %v Has(%d) = %v", trial, r, seq, !in[seq])
			}
			if !in[seq] {
				continue
			}
			count++
			if k := len(want); k > 0 && want[k-1][1] == seq-1 {
				want[k-1][1] = seq
			} else {
				want = append(want, [2]int{seq, seq})
			}
		}
		if fmt.Sprint(r) != fmt.Sprint(want) {
			t.Fatalf("trial %d: got %v, want %v", trial, r, want)
		}
		if r.Len() != count {
			t.Fatalf("trial %d: %v Len = %d, want %d", trial, r, r.Len(), count)
		}
	}
}

// TestSeqRangesHoles: the holes of a set within [lo, hi) are ascending,
// maximal, disjoint runs inside [lo, hi) that together with the set cover
// it exactly — the runs a shard coordinator requeues.
func TestSeqRangesHoles(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		var r SeqRanges
		for range rng.Intn(60) {
			r = r.Add(rng.Intn(50))
		}
		lo := rng.Intn(55) - 3
		hi := lo + rng.Intn(60) - 5
		holes := r.Holes(lo, hi)
		prev := lo - 2
		var covered []int
		for _, h := range holes {
			if h[0] > h[1] || h[0] < lo || h[1] >= hi {
				t.Fatalf("%v.Holes(%d, %d) = %v: run %v empty or outside", r, lo, hi, holes, h)
			}
			if h[0] <= prev+1 {
				t.Fatalf("%v.Holes(%d, %d) = %v: runs not maximal or not sorted", r, lo, hi, holes)
			}
			prev = h[1]
			for seq := h[0]; seq <= h[1]; seq++ {
				covered = append(covered, seq)
			}
		}
		k := 0
		for seq := lo; seq < hi; seq++ {
			inHole := k < len(covered) && covered[k] == seq
			if inHole {
				k++
			}
			if inHole == r.Has(seq) {
				t.Fatalf("%v.Holes(%d, %d) = %v: %d in the set %v, in a hole %v", r, lo, hi, holes, seq, r.Has(seq), inHole)
			}
		}
	}
	if got := (SeqRanges{{0, 9}}).Holes(0, 10); got != nil {
		t.Errorf("a full set has holes %v", got)
	}
	if got := fmt.Sprint(SeqRanges(nil).Holes(3, 7)); got != "[[3 6]]" {
		t.Errorf("the empty set's holes are %s", got)
	}
}

// TestCheckpointStoresIdentityOnly: the cursor blob is the campaign's
// identity and nothing of its completed set — the same few bytes at any
// campaign size — and reads back as that identity.
func TestCheckpointStoresIdentityOnly(t *testing.T) {
	cp := testCheckpoint()
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"campaign":"camp-1","planHash":"abc123","seed":42,"experiments":10,"reference":true}`
	if string(blob) != want {
		t.Fatalf("blob %s, want %s", blob, want)
	}
	big := *cp
	big.Ranges = SeqRanges{{0, 59_999}}
	big.Completed = make([]int, 60_000)
	if blob, err := json.Marshal(&big); err != nil || string(blob) != want {
		t.Errorf("a cursor handed a completed set stored %s (err %v)", blob, err)
	}
	var back Checkpoint
	if err := json.Unmarshal(blob, &back); err != nil || fmt.Sprint(back) != fmt.Sprint(*cp) {
		t.Errorf("read back %+v (err %v), want %+v", back, err, *cp)
	}
}

// TestCheckpointReadsFlatListCursor: a cursor row stored while the cursor
// still held the completed set — the flat "completed" list, the
// "completedRanges" runs, or both — loads as its identity; the set in it,
// however large it claims to be, is skipped.
func TestCheckpointReadsFlatListCursor(t *testing.T) {
	st := sinkFixture(t)
	if err := st.SaveCheckpoint(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	const id = `{"campaign":"camp-1","planHash":"abc123","seed":42,"experiments":10,"reference":true,`
	for _, old := range []string{
		id + `"completed":[0,2,5]}`,
		id + `"completedRanges":[[0,2],[4,4],[7,9]]}`,
		id + `"completed":[5,1],"completedRanges":[[1,3]]}`,
		id + `"completedRanges":[[0,1099511627776]]}`,
		id + `"completedRanges":[[3,2],[-1,2]]}`,
	} {
		setCursorBlob(t, st, old)
		got, err := st.GetCheckpoint("camp-1")
		if err != nil {
			t.Fatalf("%s: %v", old, err)
		}
		if want := testCheckpoint(); fmt.Sprint(*got) != fmt.Sprint(*want) {
			t.Errorf("%s read as %+v, want %+v", old, *got, *want)
		}
	}
}

// FuzzCursorBlob: whatever bytes are stored as a campaign's cursor — an
// older build's, a damaged store's, a hostile one's — reading them through
// GetCheckpoint and RecoverCursor never panics and allocates in proportion
// to the blob, never to a size the blob claims: the completed set comes
// from the rows, and the campaign's definition bounds it.
func FuzzCursorBlob(f *testing.F) {
	for _, seed := range []string{
		`{"campaign":"camp-1","planHash":"abc123","seed":42,"experiments":10,"reference":true}`,
		// Stored while the cursor held the set: runs, the flat list, both.
		`{"campaign":"camp-1","planHash":"abc123","seed":42,"experiments":10,"reference":true,"completedRanges":[[0,2],[4,4]]}`,
		`{"campaign":"camp-1","planHash":"abc123","seed":42,"experiments":10,"reference":true,"completed":[0,2,5]}`,
		`{"experiments":6,"completed":[5,1],"completedRanges":[[1,3]]}`,
		// 111 bytes that claim ten million experiments, all complete.
		`{"campaign":"camp-1","planHash":"abc1","experiments":10000000,"reference":true,"completedRanges":[[0,9999999]]}`,
		`{"completedRanges":[[0,1099511627776]]}`,
		`{"completedRanges":[[-5,-1],[3,2]]}`,
		`{"experiments":-1}`,
		`null`,
		``,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		st := sinkFixture(t)
		for seq := 0; seq < 3; seq++ {
			if err := st.LogExperiment(sinkRecord(seq)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.SaveCheckpoint(testCheckpoint()); err != nil {
			t.Fatal(err)
		}
		setCursorBlob(t, st, string(blob))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, gerr := st.GetCheckpoint("camp-1")
		cp, rerr := st.RecoverCursor("camp-1")
		runtime.ReadMemStats(&after)
		if limit := 256<<10 + 64*uint64(len(blob)); after.TotalAlloc-before.TotalAlloc > limit {
			t.Fatalf("reading a %d-byte cursor allocated %d bytes, more than %d", len(blob),
				after.TotalAlloc-before.TotalAlloc, limit)
		}
		if (gerr == nil) != (rerr == nil) {
			t.Fatalf("GetCheckpoint: %v, RecoverCursor: %v", gerr, rerr)
		}
		if rerr == nil && fmt.Sprint(cp.Ranges) != "[[0 2]]" {
			t.Fatalf("recovered %v from rows 0..2", cp.Ranges)
		}
	})
}
