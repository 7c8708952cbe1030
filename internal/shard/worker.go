package shard

// The worker: leases ranges from its coordinator, executes each with a
// core.Runner against its own WAL-backed shard database, and reports the
// logged records back in batches. The shard database makes a worker's
// progress durable locally — a worker that crashed mid-range resumes
// from its own durable cursor and reports the records it already has
// instead of re-running them — and the carried forward set keeps
// checkpoint fast-forwarding effective after the first range, where the
// reference run is skipped.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/sqldb"

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
	// Dir is the worker's shard-database directory.
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
	cfg     WorkerConfig
	carried *core.ForwardSet
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
	if cfg.Name == "" || cfg.Dir == "" || cfg.Transport == nil {
		return nil, fmt.Errorf("shard: worker needs a name, directory and transport")
	}
	if cfg.Boards <= 0 {
		cfg.Boards = 1
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	return &Worker{cfg: cfg}, nil
}

// hookSink forwards to the run's sink and mirrors every record to the
// OnRecord test hook.
type hookSink struct {
	core.CheckpointSink
	hook func(*campaign.ExperimentRecord)
}

func (h *hookSink) LogExperiment(rec *campaign.ExperimentRecord) error {
	if err := h.CheckpointSink.LogExperiment(rec); err != nil {
		return err
	}
	h.hook(rec)
	return nil
}

// reporter holds the rows of one range that the coordinator has not
// acknowledged yet. Rows arrive in stored form from the sink's tap, once
// the worker's own shard database has them, and leave in complete
// experiment groups — the detail-trace rows of an experiment and then its
// end row — so the merge advances while the range is still running and a
// dead shard loses at most the in-flight tail. Nothing is dropped before
// it is acknowledged: at the end of the range what is left here is all
// that is left to report, and the shard database is not read again.
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

// add queues rows, trace rows of an experiment before its end row.
func (p *reporter) add(rows []campaign.Row) {
	p.mu.Lock()
	for i := range rows {
		row := &rows[i]
		if row.Step() >= 0 {
			p.trace[row.Parent()] = append(p.trace[row.Parent()], *row)
			continue
		}
		if steps, ok := p.trace[row.Name()]; ok {
			p.ready = append(p.ready, steps...)
			delete(p.trace, row.Name())
		}
		p.ready = append(p.ready, *row)
	}
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
	tenants, err := campaign.NewTenantDBs(w.cfg.Dir, sqldb.SyncNever)
	if err != nil {
		return err
	}
	defer tenants.Close()
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
			err := w.runRange(ctx, tenants, resp)
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
func (w *Worker) runRange(ctx context.Context, tenants *campaign.TenantDBs, lease *LeaseResponse) error {
	camp := lease.Campaign
	if camp == nil || lease.Target == nil {
		return fmt.Errorf("shard: lease %s carries no campaign definition", lease.LeaseID)
	}

	// Two pumps for the lease's lifetime, started before any setup work —
	// the lease clock began ticking at the grant, and recovering a large
	// shard database or building a board pool can outlast a TTL. The
	// heartbeat pump is pure liveness: it must never block on the merge,
	// or backpressure would expire the very lease whose work it is
	// stalling. The streaming pump reports complete experiment groups as
	// they accumulate — it may stall in the coordinator's ingest queue
	// for as long as the merge needs, the heartbeats keep the lease alive
	// meanwhile. A rejected beat or report means the lease is gone (or
	// the worker is not welcome at all): stop the run and abandon the
	// range with that verdict.
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

	st, _, release, err := tenants.Acquire("shard")
	if err != nil {
		return err
	}
	defer release()
	// A stale shard database from an earlier run of a different campaign
	// definition under the same name would resume the wrong plan: wipe it.
	if prev, err := st.GetCampaign(camp.Name); err == nil && !sameDefinition(prev, camp) {
		if err := st.DeleteRun(camp.Name); err != nil {
			return err
		}
	}
	if err := st.PutTargetSystem(lease.Target); err != nil {
		return err
	}
	if err := st.PutCampaign(camp); err != nil {
		return err
	}
	params := make(map[string]string, len(lease.TargetParams)+1)
	for k, v := range lease.TargetParams {
		params[k] = v
	}
	if _, ok := params["image-bytes"]; !ok && lease.ImageBytes > 0 {
		params["image-bytes"] = strconv.Itoa(lease.ImageBytes)
	}
	spec := core.RunSpec{
		Store: st, Campaign: camp, Target: lease.Target,
		TargetKind: lease.TargetKind, Technique: lease.Technique, TargetParams: params,
		Boards:     w.cfg.Boards,
		Checkpoint: lease.Checkpoint,
		NoForward:  lease.NoForward,
		Retry: core.RetryPolicy{MaxRetries: lease.MaxRetries,
			BoardFailureThreshold: lease.BoardFailureThreshold},
		Resume:  true,
		ShardLo: lease.Range.Lo, ShardHi: lease.Range.Hi,
		ForwardSet: w.carried,
		Tap:        rep.add,
	}
	if spec.Checkpoint == 0 {
		spec.Checkpoint = core.DefaultCheckpointInterval
	}
	if w.cfg.OnRecord != nil {
		spec.WrapSink = func(sink core.CheckpointSink) core.CheckpointSink {
			return &hookSink{CheckpointSink: sink, hook: w.cfg.OnRecord}
		}
	}
	cr, err := core.Assemble(spec)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	defer cr.Close()
	if err := requeueSkipped(st, lease, cr.Cursor, rep); err != nil {
		return err
	}
	_, runErr := cr.Run(rctx)
	stopPumps()
	w.carried = cr.Runner.ForwardSet()
	// Make the range durable locally whatever happens next; a worker
	// killed after this point resumes without re-running anything. The
	// close also hands the reporter the last rows the sink was holding.
	if err := cr.Close(); err != nil {
		return err
	}
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

// requeueSkipped hands the reporter the rows this range will not produce
// because the shard database already holds them: the in-range experiments
// (and the reference run) that the recovered cursor makes the runner
// skip, left by an attempt that was killed or lost its lease before they
// were acknowledged. They are read by primary key, as stored; the step
// rows of each only in a detail-mode campaign, the only kind that has
// any. cp names exactly the end rows the store holds plus what its cursor
// vouches for, and the runner logs every other in-range experiment
// through the sink, so skipped rows and tapped rows together cover the
// range without a scan — and a range that starts on a clean store reads
// nothing at all.
func requeueSkipped(st *campaign.Store, lease *LeaseResponse, cp *campaign.Checkpoint, rep *reporter) error {
	if cp == nil {
		return nil // a fresh range: the store holds nothing of it
	}
	name := lease.Campaign.Name
	detail := lease.Campaign.LogMode == campaign.LogDetail
	requeue := func(experiment string, seq int) error {
		group, err := st.StoredGroup(experiment, seq, detail)
		if err != nil {
			return err
		}
		if len(group) == 0 {
			return fmt.Errorf("shard: the cursor of %s calls %s logged, but its shard database has no such row", name, experiment)
		}
		mFinalScanRows.Add(uint64(len(group)))
		rep.add(group)
		return nil
	}
	if cp.Reference {
		if err := requeue(campaign.ReferenceName(name), -1); err != nil {
			return err
		}
	}
	for _, seq := range cp.Completed {
		if seq < lease.Range.Lo || seq >= lease.Range.Hi {
			continue
		}
		if err := requeue(campaign.ExperimentName(name, seq), seq); err != nil {
			return err
		}
	}
	return nil
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

// sameDefinition compares two campaign definitions structurally.
func sameDefinition(a, b *campaign.Campaign) bool {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && string(ja) == string(jb)
}
