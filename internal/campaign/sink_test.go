package campaign

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"goofi/internal/sqldb"
)

func sinkFixture(t *testing.T) *Store {
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

func sinkRecord(i int) *ExperimentRecord {
	return &ExperimentRecord{
		Name:     ExperimentName("camp-1", i),
		Campaign: "camp-1",
		Step:     -1,
	}
}

func TestBatchingSinkFlushMakesRecordsVisible(t *testing.T) {
	st := sinkFixture(t)
	s := NewBatchingSink(st, 10)
	for i := 0; i < 25; i++ {
		if err := s.LogExperiment(sinkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Experiments("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 25 {
		t.Errorf("after flush: %d records, want 25", len(recs))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close rejects further records.
	if err := s.LogExperiment(sinkRecord(99)); err == nil {
		t.Error("log after close accepted")
	}
}

func TestBatchingSinkGetExperimentReadsOwnWrites(t *testing.T) {
	st := sinkFixture(t)
	s := NewBatchingSink(st, 1000) // never fills on its own
	defer s.Close()
	if err := s.LogExperiment(sinkRecord(0)); err != nil {
		t.Fatal(err)
	}
	rec, err := s.GetExperiment(ExperimentName("camp-1", 0))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != ExperimentName("camp-1", 0) {
		t.Errorf("got %q", rec.Name)
	}
}

func TestBatchingSinkErrorPoisons(t *testing.T) {
	st := sinkFixture(t)
	s := NewBatchingSink(st, 2)
	// A record violating the campaign FK fails the batch write.
	bad := &ExperimentRecord{Name: "x/exp", Campaign: "missing", Step: -1}
	_ = s.LogExperiment(bad)
	_ = s.LogExperiment(sinkRecord(1)) // completes the batch, triggers the write
	if err := s.Flush(); err == nil {
		t.Fatal("flush after failed batch returned nil")
	}
	// The error is sticky.
	if err := s.LogExperiment(sinkRecord(2)); err == nil {
		t.Error("poisoned sink accepted a record")
	}
	if err := s.Close(); err == nil {
		t.Error("poisoned sink closed without error")
	}
}

func TestBatchingSinkConcurrentProducers(t *testing.T) {
	st := sinkFixture(t)
	s := NewBatchingSink(st, 7)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := s.LogExperiment(sinkRecord(w*50 + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Experiments("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 200 {
		t.Errorf("stored %d records, want 200", len(recs))
	}
}

// syncBuffer is a log device the test can read while the sink's writer
// goroutine appends to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func storedRows(seqs ...int) []Row {
	rows := make([]Row, len(seqs))
	for i, seq := range seqs {
		rows[i] = EncodeRow(sinkRecord(seq))
	}
	return rows
}

// TestSinkCommitRowsKeepsHandOverOrder: records and rows that arrive in
// stored form travel one queue. The log shows them in the order they were
// handed over — the buffered records in front of the stored rows that came
// after them — and a cursor behind every row it names.
func TestSinkCommitRowsKeepsHandOverOrder(t *testing.T) {
	st := sinkFixture(t)
	var log syncBuffer
	st.db.AttachWAL(sqldb.NewWAL(&log, sqldb.SyncAlways))
	s := NewBatchingSink(st, 1000) // batches close only where the test says
	defer s.Close()
	for _, step := range []func() error{
		func() error { return s.LogExperiment(sinkRecord(0)) },
		func() error { return s.CommitRows(storedRows(1, 2), false) },
		func() error { return s.LogExperiment(sinkRecord(3)) },
		func() error { return s.CommitRows(storedRows(4), false) },
		func() error {
			cp := testCheckpoint()
			cp.Completed = []int{0, 1, 2, 3, 4}
			return s.SaveCheckpoint(cp)
		},
		s.Flush,
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	got := log.String()
	last := -1
	for seq := 0; seq < 5; seq++ {
		at := strings.Index(got, ExperimentName("camp-1", seq))
		if at <= last {
			t.Fatalf("row %d is at byte %d of the log, row %d at %d: not hand-over order", seq, at, seq-1, last)
		}
		last = at
	}
	if cursor := strings.Index(got, "CampaignCheckpoint"); cursor < last {
		t.Errorf("cursor at byte %d of the log, its last row at %d: the rows must come first", cursor, last)
	}
	if recs, err := st.Experiments("camp-1"); err != nil || len(recs) != 5 {
		t.Errorf("store holds %d records (%v), want 5", len(recs), err)
	}
}

// TestSinkCommitRowsDurableRaisesBarrier: a durable commit returns only
// behind a barrier that covers it and everything queued before it. The log
// buffers until a barrier flushes it, so what the device has seen tells.
func TestSinkCommitRowsDurableRaisesBarrier(t *testing.T) {
	st := sinkFixture(t)
	var log syncBuffer
	st.db.AttachWAL(sqldb.NewWAL(&log, sqldb.SyncBarrier))
	s := NewBatchingSink(st, 1000)
	defer s.Close()
	if err := s.CommitRows(storedRows(0), false); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil { // stored, no cursor among it: no barrier
		t.Fatal(err)
	}
	if strings.Contains(log.String(), ExperimentName("camp-1", 0)) {
		t.Fatal("a commit that asked for no barrier reached the device: the check below proves nothing")
	}
	if err := s.CommitRows(storedRows(1), true); err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 2; seq++ {
		if !strings.Contains(log.String(), ExperimentName("camp-1", seq)) {
			t.Errorf("durable commit returned before row %d reached the device", seq)
		}
	}
}

// TestSinkCommitRowsPoisoned: the poison rule covers rows in stored form —
// the failed write comes back from the next commit and from Err, and
// nothing queued behind it is written.
func TestSinkCommitRowsPoisoned(t *testing.T) {
	st := sinkFixture(t)
	s := NewBatchingSink(st, 1000)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	st.db.AttachWAL(sqldb.NewWAL(brokenDisk{}, sqldb.SyncAlways))
	if err := s.CommitRows(storedRows(0), false); err != nil {
		t.Fatalf("queueing the rows: %v", err)
	}
	if err := s.CommitRows(storedRows(1), true); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("durable commit behind a failed write returned %v", err)
	}
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Err() = %v after a failed write", err)
	}
	if err := s.CommitRows(storedRows(2), false); err == nil {
		t.Error("poisoned sink accepted stored rows")
	}
	if err := s.Close(); err == nil {
		t.Error("poisoned sink closed without error")
	}
	st.db.AttachWAL(nil)
	if recs, _ := st.Experiments("camp-1"); len(recs) > 1 {
		t.Errorf("%d rows stored behind the failed write", len(recs))
	}
}
