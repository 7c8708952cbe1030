package campaign

import (
	"fmt"
	"sync"
	"time"
)

// BatchingSink decouples experiment execution from storage latency: result
// records accumulate in memory and a background goroutine writes them to
// the Store in transaction-sized multi-row INSERT batches. Cursor saves
// travel the same way, so a board never waits for a durability barrier, and
// so do rows that arrive already encoded — a shard worker's report, which
// the coordinator commits through CommitRows. It is the one queue in front
// of a campaign's store, however the campaign is driven.
//
// The durability contract: rows and cursors reach the store in the order
// they were handed to the sink, a cursor behind the rows handed over
// before it in one commit, and a failed write stops everything behind it.
// (The cursor names no rows: recovery reads what is complete from the
// rows themselves.) Flush
// and Close return once everything handed over before them is stored and,
// where a cursor was among it, past a barrier; the scheduler saves the
// cursor and then flushes on pause and on termination. A crash in between
// loses at most what is still queued or in the writer's hands, which resume
// re-runs.
//
// The queue is bounded in rows (QueueRows), whatever number of commits
// they make: a store that falls behind blocks the boards in LogExperiment
// and SaveCheckpoint and the coordinator's reporters in CommitRows, which is
// the backpressure of both paths, and how often the campaign saves its
// cursor does not move the point at which it sets in. A bound in commits
// does: a cursor save closes one, so four commits were 64 rows of window at
// -checkpoint 16 — which pruned experiments fill in less than one fsync, so
// the boards waited out every barrier — and 256 at -checkpoint 64 and above.
// goofi run on sort-solo's 6,000 experiments, one board, -checkpoint 16
// against 1024: 254–283 ms against 145–149 with the fsyncs slow and 150
// against 114 with them fast under the commit bound, 138 against 112 under
// this one (DESIGN.md §5 (2) has the table and what is left of the gap).
// What a crash can lose is what waits, as much again in the writer's hands
// and the batch being filled — whatever the cadence.
//
// The writer encodes each batch with an encoder of its own (rowEncoder):
// the blobs of a batch go through a scratch buffer the sink keeps, then one
// copy into one allocation the stored rows share, and the batch's values
// are one slice the store's prepared INSERT keeps as the table's rows. Per
// row that is one encode and one copy; the allocations are per batch, but
// for the row's primary-key string in the table's index. The scratch is
// the sink's, not the store's: goofid runs several campaigns' sinks over
// one store.
//
// A failed write poisons the sink: the first error is retained, nothing
// queued behind it is written (a cursor must not outlive rows that failed),
// and every later LogExperiment/SaveCheckpoint/CommitRows/Flush/Close
// returns it, which is how an asynchronous write failure reaches the
// campaign's error path.
type BatchingSink struct {
	store     *Store
	batchSize int
	enc       rowEncoder // the writer's

	mu      sync.Mutex
	cond    *sync.Cond
	buf     []*ExperimentRecord
	work    []commit // queued for the writer, in hand-over order
	waiting int      // rows in work
	queued  int      // commits ever queued
	written int      // commits the writer is through with
	err     error
	closed  bool

	done chan struct{}
}

// commit is one unit of work for the writer: a batch of records, which it
// encodes, then rows that came in stored form, inserted as they came, and,
// when a cursor save closed the batch, that cursor. durable
// asks for a barrier behind the commit where no cursor does.
type commit struct {
	records []*ExperimentRecord
	rows    []Row
	cursor  *Checkpoint
	durable bool
}

// DefaultBatchSize is how many LoggedSystemState rows a BatchingSink
// groups into one INSERT unless configured otherwise.
const DefaultBatchSize = 64

// QueueRows is how many rows may wait for the writer before the boards
// block — what four full batches hold — with as many again in the writer's
// hands. A commit that would take the queue past it waits, unless the queue
// is empty: one commit is always admitted, however large, so a shard report
// of more rows than this cannot wait for room that will never come.
const QueueRows = 4 * DefaultBatchSize

// NewBatchingSink starts a sink over the store. batchSize <= 0 selects
// DefaultBatchSize. Close (or at least Flush) the sink before reading the
// campaign's results from the store directly.
func NewBatchingSink(store *Store, batchSize int) *BatchingSink {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	s := &BatchingSink{store: store, batchSize: batchSize, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.writer()
	return s
}

// writer applies everything queued as one group: each commit's statements
// in order, exactly as a synchronous caller would issue them, then a single
// barrier for all the group's cursors — a slow fsync makes the groups
// longer instead of the boards slower.
func (s *BatchingSink) writer() {
	defer close(s.done)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.work) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.work) == 0 {
			return
		}
		group, err := s.work, s.err
		s.work, s.waiting = nil, 0
		s.cond.Broadcast() // room for the boards
		s.mu.Unlock()
		barrier := false
		for _, c := range group {
			if err == nil && len(c.records) > 0 {
				err = s.store.logBatch(&s.enc, c.records)
			}
			if err == nil && len(c.rows) > 0 {
				err = s.store.InsertRows(c.rows)
			}
			if err == nil && c.cursor != nil {
				err = s.store.putCheckpoint(&s.enc, c.cursor)
			}
			barrier = barrier || c.cursor != nil || c.durable
		}
		if err == nil && barrier {
			err = s.store.db.Barrier()
		}
		mSinkGroups.Inc()
		mSinkGroupCommits.Add(uint64(len(group)))
		s.mu.Lock()
		s.err = err
		s.written += len(group)
		s.cond.Broadcast()
	}
}

// full reports whether a commit bringing rows stored rows, with the
// buffered records in front of them, has to wait for the writer. Callers
// hold s.mu.
func (s *BatchingSink) full(rows int) bool {
	return len(s.work) > 0 && s.waiting+len(s.buf)+rows > QueueRows
}

// submit queues c, the buffered records in front of what it brought, as one
// commit. Waiting for room comes before taking the records: once taken they
// are queued in the same critical section, so commits enter the queue in the
// order their rows were handed over. Callers hold s.mu.
func (s *BatchingSink) submit(c commit) {
	if s.full(len(c.rows)) {
		start := time.Now()
		for s.full(len(c.rows)) {
			s.cond.Wait()
		}
		mSinkWaitNS.Add(uint64(time.Since(start)))
	}
	c.records, s.buf = s.buf, nil
	if len(c.records) == 0 && len(c.rows) == 0 && c.cursor == nil && !c.durable {
		return
	}
	if len(c.records) > 0 {
		mSinkBatches.Inc()
	}
	s.work = append(s.work, c)
	s.waiting += len(c.records) + len(c.rows)
	s.queued++
	s.cond.Broadcast()
}

// settle blocks until the writer is through with everything queued so far —
// not with what others queue meanwhile — and returns the sink's error.
// Callers hold s.mu.
func (s *BatchingSink) settle() error {
	for n := s.queued; s.written < n; {
		s.cond.Wait()
	}
	return s.err
}

// usable reports why the sink takes no more work, if it does not. Callers
// hold s.mu.
func (s *BatchingSink) usable() error {
	if s.err == nil && s.closed {
		return fmt.Errorf("campaign: sink is closed")
	}
	return s.err
}

// LogExperiment queues one record. The write happens in the background;
// an error reported here is a prior write's failure.
func (s *BatchingSink) LogExperiment(r *ExperimentRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	if s.buf == nil {
		// The commit takes the batch's slice with it: one for each batch,
		// not one for each doubling of it.
		s.buf = make([]*ExperimentRecord, 0, s.batchSize)
	}
	s.buf = append(s.buf, r)
	mSinkRecords.Inc()
	if len(s.buf) >= s.batchSize {
		s.submit(commit{})
	}
	return nil
}

// SaveCheckpoint queues the campaign cursor behind every record logged
// before it and returns without waiting for either: the writer stores the
// rows, then the cursor, then raises a barrier. The ordering is the
// crash-safety invariant — a durable cursor always implies its experiments
// are durable, so resume never skips an experiment that was lost in
// flight. An error reported here is a prior write's failure; this save's
// own comes back from a later call, Flush and Close at the latest. The
// sink keeps cp: the caller must not change it afterwards.
func (s *BatchingSink) SaveCheckpoint(cp *Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	s.submit(commit{cursor: cp})
	return nil
}

// CommitRows queues rows that are already in stored form as one commit,
// behind everything handed over before it; the writer inserts them as they
// came. With durable set it returns only once they, and everything before
// them, are stored and a barrier is raised behind them; without, an error
// reported here is a prior write's failure. The sink keeps rows: the caller
// must not change them afterwards.
func (s *BatchingSink) CommitRows(rows []Row, durable bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	s.submit(commit{rows: rows, durable: durable})
	if !durable {
		return nil
	}
	return s.settle()
}

// Err is the sink's retained write error, if a write has failed.
func (s *BatchingSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Flush submits the partial batch and blocks until everything handed to
// the sink so far is stored (or a write failed) — the point at which a
// cursor saved before it is durable.
func (s *BatchingSink) Flush() error {
	mSinkFlushes.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.submit(commit{})
	return s.settle()
}

// GetExperiment reads a record through the store, flushing first so the
// sink's own queued writes are visible (read-your-writes).
func (s *BatchingSink) GetExperiment(name string) (*ExperimentRecord, error) {
	if err := s.Flush(); err != nil {
		return nil, err
	}
	return s.store.GetExperiment(name)
}

// Close flushes outstanding records and stops the writer goroutine. The
// sink rejects further records after Close.
func (s *BatchingSink) Close() error {
	err := s.Flush()
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
	return err
}
