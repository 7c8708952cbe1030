package shard

// The worker: leases ranges from its coordinator, executes each with a
// core.Runner, and reports the logged rows back in batches. It is
// stateless: it opens no database and writes no file, and the
// coordinator's store is the campaign's only durable copy. A worker that
// dies mid-range loses the rows it had not been acknowledged — at most a
// heartbeat's worth of streamed work — and the coordinator's lease expiry
// hands them to whoever leases the requeued range, byte-identical because
// seeds derive from (campaignSeed, seq) alone. Nothing is kept from one
// lease to the next either: every range runs the campaign's reference run,
// which records the forward set its experiments forward and prune from, and
// reports the reference row, which the coordinator drops once it has one.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/core"

	// Registered target systems: workers construct targets through the
	// core registry, so each package's RegisterTarget init must run.
	_ "goofi/internal/pinlevel"
	_ "goofi/internal/proctarget"
	_ "goofi/internal/scifi"
	_ "goofi/internal/swifi"
)

// reportBatch is how many ready rows wake the streaming pump; a report
// carries up to four times as many. Experiment groups (an end row plus
// its trace rows) are never split across reports, so the coordinator can
// accept trace rows with their parent.
const reportBatch = 64

// maxRetryWait caps the doubling wait between attempts at a coordinator
// that does not answer.
const maxRetryWait = 2 * time.Second

// WorkerConfig wires one shard worker.
type WorkerConfig struct {
	// Name identifies the worker in the lease protocol.
	Name string
	// Dir is ignored: a worker keeps nothing on disk and never writes
	// there. The field stays only for its one user, bench/inproc.go's
	// in-process shard workers.
	Dir string
	// Boards sizes the worker's own board pool (default 1).
	Boards int
	// Transport reaches the coordinator.
	Transport Transport
	// Poll is the first wait before retrying a coordinator that failed to
	// answer, doubling up to maxRetryWait (default 200ms). Nothing on the
	// healthy path sleeps it: a worker with no range to run waits inside
	// the coordinator's Lease.
	Poll time.Duration
	// OnRecord, when set, observes every record the worker's runs log
	// (test hook: conformance kills a worker mid-range from it).
	OnRecord func(rec *campaign.ExperimentRecord)
}

// Worker executes leased ranges until its coordinator says done.
type Worker struct {
	cfg WorkerConfig
	// delivSeq numbers report deliveries so every batch gets a unique
	// idempotency key; retries of the same batch reuse the same key.
	delivSeq atomic.Int64
}

// delivery mints the idempotency key for one report batch of a lease.
func (w *Worker) delivery(leaseID string) string {
	return fmt.Sprintf("%s/%s/%d", w.cfg.Name, leaseID, w.delivSeq.Add(1))
}

// NewWorker validates the config and builds a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Name == "" || cfg.Transport == nil {
		return nil, fmt.Errorf("shard: worker needs a name and a transport")
	}
	if cfg.Boards <= 0 {
		cfg.Boards = 1
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	return &Worker{cfg: cfg}, nil
}

// rowSink is the sink of one leased range: it encodes each record once and
// hands the row to the reporter. Nothing is stored here, so there is
// nothing to flush and nothing to read back.
type rowSink struct {
	rep *reporter
	// hook is WorkerConfig.OnRecord.
	hook func(*campaign.ExperimentRecord)
}

func (s rowSink) LogExperiment(rec *campaign.ExperimentRecord) error {
	row, err := campaign.EncodeRow(rec)
	if err != nil {
		return err
	}
	s.rep.add(row)
	if s.hook != nil {
		s.hook(rec)
	}
	return nil
}

func (s rowSink) GetExperiment(name string) (*campaign.ExperimentRecord, error) {
	return nil, fmt.Errorf("shard: a worker keeps no records to read %s from", name)
}

func (s rowSink) Flush() error { return nil }

// reporter holds the rows of one range that the coordinator has not
// acknowledged yet. Rows arrive in stored form from the range's sink, as
// the boards log them, and leave in complete experiment groups — the
// detail-trace rows of an experiment and then its end row — so the merge
// advances while the range is still running and a dead shard loses at most
// the in-flight tail. Nothing is dropped before it is acknowledged: at the
// end of the range what is left here is all that is left to report.
type reporter struct {
	mu sync.Mutex
	// trace buffers detail rows until their parent's end row lands.
	trace map[string][]campaign.Row
	// ready holds complete groups in arrival order, each ending in its
	// end row; take cuts only behind one.
	ready []campaign.Row
	// kick wakes the pump early once a full batch is ready.
	kick chan struct{}

	// unacked is the report whose acknowledgement has not arrived: a
	// transient failure leaves it here to go out again as it is, delivery
	// key included, so the coordinator can tell a repeat from news. Only
	// one goroutine delivers at a time — the pump, then the final drain.
	unacked *ReportRequest
}

func newReporter() *reporter {
	return &reporter{
		trace: make(map[string][]campaign.Row),
		kick:  make(chan struct{}, 1),
	}
}

// add queues a row: a trace row waits for its experiment's end row, and
// the end row releases the group.
func (p *reporter) add(row campaign.Row) {
	p.mu.Lock()
	if row.Step() >= 0 {
		p.trace[row.Parent()] = append(p.trace[row.Parent()], row)
		p.mu.Unlock()
		return
	}
	steps := p.trace[row.Name()]
	delete(p.trace, row.Name())
	p.ready = append(append(p.ready, steps...), row)
	full := len(p.ready) >= reportBatch
	p.mu.Unlock()
	if full {
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
}

// take pops complete groups up to max rows — or one whole group, so that
// a group larger than max still moves — and reports whether that emptied
// the queue.
func (p *reporter) take(max int) (rows []campaign.Row, empty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.ready)
	if n > max {
		for n = max; n > 0 && p.ready[n-1].Step() >= 0; n-- {
		}
		if n == 0 {
			for n = max + 1; p.ready[n-1].Step() >= 0; n++ {
			}
		}
	}
	rows, p.ready = p.ready[:n:n], p.ready[n:]
	return rows, len(p.ready) == 0
}

// Run leases and executes ranges until the coordinator reports the
// campaign done, the context ends, or a local failure is fatal. A lost
// lease (heartbeat lapse, coordinator restart) abandons the range and
// leases anew — the coordinator requeues what was not merged.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	wait := w.cfg.Poll
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := w.cfg.Transport.Lease(ctx, LeaseRequest{Worker: w.cfg.Name})
		if err != nil {
			if terminal(err) {
				return err
			}
			// The coordinator may be restarting; keep knocking.
			if !retryWait(ctx, &wait) {
				return ctx.Err()
			}
			continue
		}
		wait = w.cfg.Poll
		switch resp.Status {
		case LeaseDone:
			return nil
		case LeaseWait:
			// The coordinator held the request for as long as it cared to
			// and has nothing yet: ask again, it does the waiting.
		case LeaseRange:
			err := w.runRange(ctx, resp)
			switch {
			case err == nil:
			case errors.Is(err, ErrBadLease):
				// Abandoned: the coordinator already requeued the rest.
			case ctx.Err() != nil:
				return ctx.Err()
			default:
				return err
			}
		default:
			return fmt.Errorf("shard: unknown lease status %q", resp.Status)
		}
	}
}

// register says hello until the coordinator answers. The answer settles
// two things before any work is leased: a bad token (401) and a
// coordinator of another protocol version both end the worker with the
// reason, instead of surfacing later as reports that can never land. It
// also makes the fleet visible in /progress from the first connection.
func (w *Worker) register(ctx context.Context) error {
	host, _ := os.Hostname() // display only
	wait := w.cfg.Poll
	for {
		resp, err := w.cfg.Transport.Hello(ctx, HelloRequest{
			Worker: w.cfg.Name, Host: host, Protocol: ProtocolVersion,
		})
		switch {
		case err == nil && resp.Protocol == ProtocolVersion:
			return nil
		case err == nil:
			return fmt.Errorf("%w: coordinator speaks version %d, this worker %d — run the same goofi build on both sides",
				ErrProtocol, resp.Protocol, ProtocolVersion)
		case terminal(err):
			return err
		}
		// Not there yet, restarting, or unreachable: keep knocking.
		if !retryWait(ctx, &wait) {
			return ctx.Err()
		}
	}
}

// terminal reports whether err ends the worker: no later call with the
// same credentials and the same build can fare better.
func terminal(err error) bool {
	return errors.Is(err, ErrUnauthorized) || errors.Is(err, ErrProtocol)
}

// retryWait sleeps *wait and doubles it up to maxRetryWait; false means
// ctx ended first.
func retryWait(ctx context.Context, wait *time.Duration) bool {
	t := time.NewTimer(*wait)
	defer t.Stop()
	*wait = min(2**wait, maxRetryWait)
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// runRange executes one leased range and reports its rows.
func (w *Worker) runRange(ctx context.Context, lease *LeaseResponse) error {
	camp := lease.Campaign
	if camp == nil || lease.Target == nil {
		return fmt.Errorf("shard: lease %s carries no campaign definition", lease.LeaseID)
	}

	// Two pumps for the lease's lifetime, started before any setup work —
	// the lease clock began ticking at the grant, and building a board pool
	// can outlast a TTL. The heartbeat pump is pure liveness: it must never
	// block on the merge, or backpressure would expire the very lease whose
	// work it is stalling. The streaming pump reports complete experiment
	// groups as they accumulate — it may stall in the coordinator's sink
	// queue for as long as the merge needs, the heartbeats keep the lease
	// alive meanwhile. A rejected beat or report means the lease is gone (or
	// the worker is not welcome at all): stop the run and abandon the range
	// with that verdict.
	rep := newReporter()
	rctx, rcancel := context.WithCancel(ctx)
	var pumps sync.WaitGroup
	var abandonOnce sync.Once
	var verdict error // written once before rcancel, read after pumps.Wait
	abandon := func(err error) {
		abandonOnce.Do(func() {
			verdict = err
			rcancel()
		})
	}
	stopPumps := func() {
		rcancel()
		pumps.Wait()
	}
	defer stopPumps()
	pumps.Add(2)
	go func() {
		defer pumps.Done()
		t := time.NewTicker(heartbeatEvery(lease))
		defer t.Stop()
		for {
			select {
			case <-rctx.Done():
				return
			case <-t.C:
			}
			err := w.cfg.Transport.Heartbeat(ctx, HeartbeatRequest{
				Worker: w.cfg.Name, LeaseID: lease.LeaseID,
			})
			if errors.Is(err, ErrBadLease) || terminal(err) {
				abandon(err)
				return
			}
			// Transient transport errors ride: the coordinator will
			// expire us if they persist, and the next beat retries.
		}
	}()
	go func() {
		defer pumps.Done()
		t := time.NewTicker(heartbeatEvery(lease))
		defer t.Stop()
		for {
			select {
			case <-rctx.Done():
				return
			case <-rep.kick:
			case <-t.C:
			}
			if err := w.deliver(ctx, lease.LeaseID, rep, false); err != nil {
				abandon(err)
				return
			}
		}
	}()

	spec := lease.RunOptions.RunSpec()
	spec.Sink = rowSink{rep: rep, hook: w.cfg.OnRecord}
	spec.Campaign, spec.Target = camp, lease.Target
	spec.Boards = w.cfg.Boards
	spec.ShardLo, spec.ShardHi = lease.Range.Lo, lease.Range.Hi
	cr, err := core.Assemble(spec)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	_, runErr := cr.Run(rctx)
	stopPumps()
	if verdict != nil {
		return verdict
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if runErr != nil {
		return runErr
	}
	return w.deliver(ctx, lease.LeaseID, rep, true)
}

func heartbeatEvery(lease *LeaseResponse) time.Duration {
	if lease.HeartbeatEvery > 0 {
		return lease.HeartbeatEvery
	}
	return DefaultHeartbeat
}

// deliver reports what the reporter holds, the unacknowledged report
// first and under its original key. The streaming pump calls it with
// final unset: it sends until the queue is empty and leaves a report that
// failed in transit for its next turn. The end of the range calls it with
// final set: it retries until the coordinator has given a verdict on
// every report, and marks the one that empties the queue — an empty one
// if need be — as the range's last. The errors it returns are verdicts:
// ErrBadLease, or one that ends the worker.
func (w *Worker) deliver(ctx context.Context, leaseID string, rep *reporter, final bool) error {
	wait := w.cfg.Poll
	for {
		req := rep.unacked
		if req == nil {
			rows, empty := rep.take(4 * reportBatch)
			if len(rows) == 0 && !final {
				return nil
			}
			req = &ReportRequest{
				Worker: w.cfg.Name, LeaseID: leaseID, Rows: rows,
				Final: final && empty, Delivery: w.delivery(leaseID),
			}
			rep.unacked = req
		}
		_, err := w.cfg.Transport.Report(ctx, *req)
		switch {
		case err == nil:
			rep.unacked = nil
			if req.Final {
				return nil
			}
			wait = w.cfg.Poll
		case errors.Is(err, ErrBadLease), !Retryable(err) && ctx.Err() == nil:
			return err
		case !final:
			return nil
		default:
			// The coordinator may be mid-restart: retry until the lease
			// verdict is in.
			if !retryWait(ctx, &wait) {
				return ErrBadLease
			}
		}
	}
}
