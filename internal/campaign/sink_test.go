package campaign

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goofi/internal/sqldb"
	"goofi/internal/telemetry"
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

// mustRow is EncodeRow of a record that has to encode.
func mustRow(r *ExperimentRecord) Row {
	row, err := EncodeRow(r)
	if err != nil {
		panic(err)
	}
	return row
}

// relativeBlob is s in the relative form against ref, where it fits.
func relativeBlob(s *StateVector, ref *Reference) ([]byte, bool) {
	return (&ExperimentRecord{State: *s, Ref: ref}).appendRelative(nil)
}

func storedRows(seqs ...int) []Row {
	rows := make([]Row, len(seqs))
	for i, seq := range seqs {
		rows[i] = mustRow(sinkRecord(seq))
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
		func() error { return s.SaveCheckpoint(testCheckpoint()) },
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

// gatedLog is a log device that can be shut: while it is, a write announces
// itself and waits for the gate to open.
type gatedLog struct {
	syncBuffer
	gate atomic.Pointer[logGate]
}

type logGate struct {
	entered, open chan struct{}
	once          sync.Once
}

func (g *gatedLog) Write(p []byte) (int, error) {
	if gt := g.gate.Load(); gt != nil {
		gt.once.Do(func() { close(gt.entered) })
		<-gt.open
	}
	return g.syncBuffer.Write(p)
}

// shut closes the gate. entered is closed when the first write stands at
// it; open lets that write and every later one through, once.
func (g *gatedLog) shut() (entered <-chan struct{}, open func()) {
	gt := &logGate{entered: make(chan struct{}), open: make(chan struct{})}
	g.gate.Store(gt)
	return gt.entered, sync.OnceFunc(func() {
		g.gate.Store(nil)
		close(gt.open)
	})
}

// stalledSink is a sink of the default batch size whose writer stands in
// the store's log device with one commit in its hands, a row and a cursor,
// and nothing queued behind it, until open is called — which the cleanup does before it
// closes the sink, so that a failed assertion ends the test instead of
// hanging it.
func stalledSink(t *testing.T, policy sqldb.SyncPolicy) (s *BatchingSink, st *Store, open func()) {
	t.Helper()
	st = sinkFixture(t)
	log := &gatedLog{}
	st.db.AttachWAL(sqldb.NewWAL(log, policy))
	entered, open := log.shut()
	s = NewBatchingSink(st, 0)
	t.Cleanup(func() {
		open()
		s.Close()
	})
	// One commit: under SyncBarrier it is the cursor that takes the writer
	// to the device.
	if err := s.LogExperiment(sinkRecord(9000)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the writer never reached the log device")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.work) != 0 || s.waiting != 0 {
		t.Fatalf("%d commits, %d rows wait behind the writer's first group", len(s.work), s.waiting)
	}
	return s, st, open
}

// blocksUntil checks that call does not return while the store is stalled
// and does once open has run.
func blocksUntil(t *testing.T, what string, open func(), call func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	select {
	case err := <-done:
		t.Fatalf("%s was admitted (%v) with the queue at its bound and the store stalled", what, err)
	case <-time.After(50 * time.Millisecond):
	}
	open()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s still waits after the writer took the group", what)
	}
}

// returnsAtOnce checks that call is admitted while the store is stalled.
func returnsAtOnce(t *testing.T, what string, call func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s waits for room the queue has", what)
	}
}

// TestSinkBoundIsInRows: with the store stalled, exactly QueueRows rows are
// admitted behind the writer — in as many commits as the default cursor
// cadence makes of them, four times what a bound in commits let wait — and
// the call that would queue one more waits until the writer takes the group.
func TestSinkBoundIsInRows(t *testing.T) {
	const cadence = 16
	for _, next := range []string{"LogExperiment", "SaveCheckpoint", "CommitRows"} {
		t.Run(next, func(t *testing.T) {
			s, st, open := stalledSink(t, sqldb.SyncAlways)
			logged := 0
			log := func() error {
				logged++
				return s.LogExperiment(sinkRecord(logged - 1))
			}
			returnsAtOnce(t, "the bound's rows", func() error {
				for logged < QueueRows {
					if err := log(); err != nil {
						return err
					}
					if logged%cadence == 0 {
						if err := s.SaveCheckpoint(testCheckpoint()); err != nil {
							return err
						}
					}
				}
				return nil
			})
			s.mu.Lock()
			commits, waiting, buffered := len(s.work), s.waiting, len(s.buf)
			s.mu.Unlock()
			if commits != QueueRows/cadence || waiting != QueueRows || buffered != 0 {
				t.Fatalf("%d commits of %d rows wait, %d buffered; want %d of %d and none",
					commits, waiting, buffered, QueueRows/cadence, QueueRows)
			}
			switch next {
			case "LogExperiment":
				// Records that only fill the batch need no room.
				returnsAtOnce(t, "a batch short of full", func() error {
					for logged < QueueRows+DefaultBatchSize-1 {
						if err := log(); err != nil {
							return err
						}
					}
					return nil
				})
				blocksUntil(t, "the LogExperiment that submits the batch", open, log)
			case "SaveCheckpoint":
				if err := log(); err != nil {
					t.Fatal(err)
				}
				blocksUntil(t, "SaveCheckpoint behind a buffered record", open,
					func() error { return s.SaveCheckpoint(testCheckpoint()) })
			case "CommitRows":
				logged++
				blocksUntil(t, "CommitRows of one row", open,
					func() error { return s.CommitRows(storedRows(logged-1), false) })
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if n, err := st.CountExperiments("camp-1"); err != nil || n != logged+1 {
				t.Errorf("store holds %d rows (%v), want %d and the first", n, err, logged)
			}
		})
	}
}

// TestSinkOversizeCommit: a commit of more rows than the bound is admitted
// when nothing waits — room for it never comes otherwise — and waits like
// any other when something does.
func TestSinkOversizeCommit(t *testing.T) {
	s, st, open := stalledSink(t, sqldb.SyncAlways)
	seqs := func(from, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = from + i
		}
		return out
	}
	const big = QueueRows + 10
	returnsAtOnce(t, "an oversize commit on an empty queue",
		func() error { return s.CommitRows(storedRows(seqs(0, big)...), false) })
	blocksUntil(t, "an oversize commit behind another", open,
		func() error { return s.CommitRows(storedRows(seqs(big, big)...), false) })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := st.CountExperiments("camp-1"); err != nil || n != 2*big+1 {
		t.Errorf("store holds %d rows (%v), want %d", n, err, 2*big+1)
	}
}

// TestSinkHandOverOrderIsStoreOrder: whatever the cursor cadence, and with
// more rows than the queue holds, the log shows the rows in the order they
// were handed over and every cursor behind the last row it names, in front
// of the next.
func TestSinkHandOverOrderIsStoreOrder(t *testing.T) {
	const n = 2*QueueRows + DefaultBatchSize/2
	for _, cadence := range []int{1, 16, 0} {
		st := sinkFixture(t)
		var log syncBuffer
		st.db.AttachWAL(sqldb.NewWAL(&log, sqldb.SyncAlways))
		s := NewBatchingSink(st, 0)
		cursors := map[int][]byte{} // by the last row logged before each
		for i := 0; i < n; i++ {
			if err := s.LogExperiment(sinkRecord(i)); err != nil {
				t.Fatal(err)
			}
			if cadence > 0 && (i+1)%cadence == 0 {
				cp := testCheckpoint()
				cp.Seed = int64(i) // tells the cursors apart in the log
				if err := s.SaveCheckpoint(cp); err != nil {
					t.Fatal(err)
				}
				blob, err := json.Marshal(cp)
				if err != nil {
					t.Fatal(err)
				}
				cursors[i] = blob
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		got := []byte(log.String())
		at := make([]int, n+1) // where each row's name is in the log; the end of it behind the last
		at[n] = len(got)
		for i := 0; i < n; i++ {
			at[i] = bytes.Index(got, []byte(ExperimentName("camp-1", i)))
			if at[i] < 0 || i > 0 && at[i] <= at[i-1] {
				t.Fatalf("cadence %d: row %d is at byte %d of the log, row %d at %d", cadence, i, at[i], i-1, at[i-1])
			}
		}
		for i, blob := range cursors {
			if c := bytes.Index(got, blob); c < at[i] || c > at[i+1] {
				t.Fatalf("cadence %d: the cursor saved after row %d is at byte %d of the log, row %d at %d, the next at %d",
					cadence, i, c, i, at[i], at[i+1])
			}
		}
		if cadence > 0 && len(cursors) != n/cadence {
			t.Fatalf("cadence %d: %d cursors saved", cadence, len(cursors))
		}
	}
}

// TestSinkOneBarrierPerGroup: the cursors that queue up while the writer is
// in a barrier are one group behind one barrier, however many they are.
func TestSinkOneBarrierPerGroup(t *testing.T) {
	moved := func(before map[string]float64, name string) float64 {
		return telemetry.Default.Snapshot()[name] - before[name]
	}
	before := telemetry.Default.Snapshot()
	s, st, open := stalledSink(t, sqldb.SyncBarrier)
	const cursors = 10
	for i := 0; i < cursors; i++ {
		if err := s.LogExperiment(sinkRecord(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.SaveCheckpoint(testCheckpoint()); err != nil {
			t.Fatal(err)
		}
	}
	open()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := st.CountExperiments("camp-1"); err != nil || n != cursors+1 {
		t.Fatalf("store holds %d rows (%v), want %d", n, err, cursors+1)
	}
	// The stalled commit and the group that queued up behind it.
	for name, want := range map[string]float64{
		"goofi_sqldb_wal_barriers_total":          2,
		"goofi_campaign_sink_groups_total":        2,
		"goofi_campaign_sink_group_commits_total": 1 + cursors,
	} {
		if got := moved(before, name); got != want {
			t.Errorf("%s moved by %v, want %v", name, got, want)
		}
	}
	if moved(before, "goofi_campaign_sink_wait_ns_total") != 0 {
		t.Error("ten one-row commits waited for room")
	}
}
