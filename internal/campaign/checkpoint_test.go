package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
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
		Completed:   []int{0, 2, 5},
	}
}

func TestCheckpointDone(t *testing.T) {
	cp := testCheckpoint()
	for _, seq := range []int{0, 2, 5} {
		if !cp.Done(seq) {
			t.Errorf("Done(%d) = false, want true", seq)
		}
	}
	for _, seq := range []int{-1, 1, 3, 4, 6, 100} {
		if cp.Done(seq) {
			t.Errorf("Done(%d) = true, want false", seq)
		}
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
	if got == nil || got.PlanHash != cp.PlanHash || got.Seed != cp.Seed ||
		got.Experiments != cp.Experiments || !got.Reference ||
		fmt.Sprint(got.Completed) != fmt.Sprint(cp.Completed) {
		t.Errorf("round trip: got %+v, want %+v", got, cp)
	}
	// A second save is an update, not a duplicate-key failure.
	cp.Completed = append(cp.Completed, 7)
	cp.PlanHash = "def456"
	if err := st.SaveCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	got, err = st.GetCheckpoint("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	if got.PlanHash != "def456" || !got.Done(7) {
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

// TestRecoverCursorUnionsDurableRows is the crash-window case: records
// flush before the cursor row is written, so end-of-experiment rows can
// be durable while the stored checkpoint still lags. RecoverCursor must
// report the union.
func TestRecoverCursorUnionsDurableRows(t *testing.T) {
	st := sinkFixture(t)
	// Stored cursor knows about 0 and 5 only.
	if err := st.SaveCheckpoint(&Checkpoint{
		Campaign: "camp-1", PlanHash: "h1", Seed: 42, Experiments: 10,
		Completed: []int{0, 5},
	}); err != nil {
		t.Fatal(err)
	}
	// But rows 0..2 plus the reference made it to the store.
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
	if want := "[0 1 2 5]"; fmt.Sprint(cp.Completed) != want {
		t.Errorf("Completed = %v, want %v", cp.Completed, want)
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
	if want := "[3]"; fmt.Sprint(cp.Completed) != want {
		t.Errorf("Completed = %v, want %v", cp.Completed, want)
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
	if want := "[0]"; fmt.Sprint(cp.Completed) != want {
		t.Errorf("Completed = %v, want %v (orphan must not count)", cp.Completed, want)
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
	cp.Completed = []int{0, 1, 2, 3, 4}
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
// the ones the sorted list collapses to, and a cursor holding them is
// stored as the same bytes as one holding the list.
func TestSeqRangesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		var r SeqRanges
		in := make(map[int]bool)
		for i := 0; i < n; i++ {
			seq := rng.Intn(50)
			r = r.Add(seq)
			in[seq] = true
		}
		var want SeqRanges
		var sorted []int
		for seq := 0; seq < 50; seq++ {
			if !in[seq] {
				continue
			}
			sorted = append(sorted, seq)
			if k := len(want); k > 0 && want[k-1][1] == seq-1 {
				want[k-1][1] = seq
			} else {
				want = append(want, [2]int{seq, seq})
			}
		}
		if fmt.Sprint(r) != fmt.Sprint(want) {
			t.Fatalf("trial %d: got %v, want %v", trial, r, want)
		}
		asList, err1 := json.Marshal(Checkpoint{Campaign: "c", Experiments: 50, Completed: sorted})
		asRuns, err2 := json.Marshal(Checkpoint{Campaign: "c", Experiments: 50, Ranges: r})
		if err1 != nil || err2 != nil || !bytes.Equal(asList, asRuns) {
			t.Fatalf("trial %d: stored as %s from the list, %s from the runs", trial, asList, asRuns)
		}
	}
}

// TestCheckpointStoredAsRanges: the cursor blob holds one [lo, hi] pair
// per run of completed sequence numbers and reads back as the sorted
// flat list — even from a list that was handed over unsorted.
func TestCheckpointStoredAsRanges(t *testing.T) {
	cp := testCheckpoint()
	cp.Completed = []int{0, 1, 2, 2, 4, 7, 8, 9}
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"completedRanges":[[0,2],[4,4],[7,9]]`; !strings.Contains(string(blob), want) {
		t.Fatalf("blob %s lacks %s", blob, want)
	}
	var back Checkpoint
	for _, completed := range [][]int{cp.Completed, {7, 0, 1, 2, 9, 8, 2, 4}} {
		cp.Completed = completed
		if blob, err = json.Marshal(cp); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(back.Completed), "[0 1 2 4 7 8 9]"; got != want {
			t.Errorf("%v read back as %s, want %s", completed, got, want)
		}
	}
	back.Completed = nil
	cp.Completed = nil
	if fmt.Sprint(back) != fmt.Sprint(*cp) {
		t.Errorf("identity fields: read back %+v, want %+v", back, *cp)
	}

	// A finished 60,000-experiment campaign is one run, not 60,000 numbers.
	cp.Experiments = 60_000
	cp.Completed = make([]int, 60_000)
	for i := range cp.Completed {
		cp.Completed[i] = i
	}
	if blob, err = json.Marshal(cp); err != nil || len(blob) > 200 {
		t.Errorf("cursor of a contiguous plan is %d bytes (err %v)", len(blob), err)
	}
	if err := json.Unmarshal(blob, &back); err != nil || len(back.Completed) != 60_000 || !back.Done(59_999) {
		t.Errorf("contiguous cursor read back %d entries (err %v)", len(back.Completed), err)
	}

	for _, bad := range []string{
		`{"campaign":"c","experiments":10,"completedRanges":[[3,2]]}`,
		`{"campaign":"c","experiments":10,"completedRanges":[[-1,2]]}`,
		// Past the end of the plan: expanding it would allocate whatever
		// the blob says.
		`{"campaign":"c","experiments":10,"completedRanges":[[0,10]]}`,
		`{"campaign":"c","experiments":10,"completedRanges":[[0,1099511627776]]}`,
		`{"campaign":"c","completedRanges":[[0,0]]}`,
		`{"campaign":"c","experiments":10,"completedRanges":[[0,9],[0,9]]}`,
	} {
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Errorf("%s was accepted", bad)
		}
	}
}

// TestCheckpointReadsFlatListCursor: a cursor row stored before ranges —
// the flat "completed" list — still loads, alone or next to ranges.
func TestCheckpointReadsFlatListCursor(t *testing.T) {
	st := sinkFixture(t)
	if err := st.SaveCheckpoint(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	const old = `{"campaign":"camp-1","planHash":"abc123","seed":42,"experiments":10,"reference":true,"completed":[0,2,5]}`
	if _, err := st.DB().Exec(`UPDATE CampaignCheckpoint SET cursor = ? WHERE campaignName = ?`,
		sqldb.Blob([]byte(old)), sqldb.Text("camp-1")); err != nil {
		t.Fatal(err)
	}
	got, err := st.GetCheckpoint("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	if want := testCheckpoint(); fmt.Sprint(*got) != fmt.Sprint(*want) {
		t.Errorf("flat-list cursor read as %+v, want %+v", *got, *want)
	}
	var mixed Checkpoint
	if err := json.Unmarshal([]byte(`{"experiments":6,"completed":[5,1],"completedRanges":[[1,3]]}`), &mixed); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(mixed.Completed); got != "[1 2 3 5]" {
		t.Errorf("mixed cursor read as %s", got)
	}
}
