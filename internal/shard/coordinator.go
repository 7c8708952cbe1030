package shard

// The coordinator: owns the canonical campaign store, partitions the
// plan, leases ranges, expires dead shards, and merges reported rows
// through the campaign's sink. It never executes an experiment itself.
//
// Lease state machine (DESIGN.md §10):
//
//	pending range --Lease--> leased --Report(final)--> retired
//	      ^                   |
//	      |                   | heartbeat lapse (Sweep)
//	      +---- requeue <-----+
//
// A Lease that finds nothing pending waits inside the coordinator for the
// next transition of this machine instead of sending the worker away to
// poll.
//
// A requeued lease re-enters pending as the coalesced runs of its
// still-unaccepted sequences, so work already merged from non-final
// reports is never redone. Acceptance is tracked per sequence number;
// a sequence is merged exactly once no matter how many leases ever
// covered it, which is what the partition property test pins.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/telemetry"
)

// DefaultHeartbeat is the lease heartbeat period when the config leaves
// it zero; a lease lapses after three missed beats.
const DefaultHeartbeat = 500 * time.Millisecond

// minTTLRatio is the floor of LeaseTTL/HeartbeatEvery. A TTL under two
// beats means a single delayed or dropped heartbeat expires a healthy
// lease — a misconfiguration on any real network — so NewCoordinator
// rejects it outright instead of letting the deployment discover it as
// spurious requeues.
const minTTLRatio = 2

// DefaultMaxWorkerFailures quarantines a worker after this many expired
// leases (the PR 4 board-failure threshold lifted to shard level).
const DefaultMaxWorkerFailures = 3

// maxDeliveries bounds the report-delivery idempotency cache. Entries
// evict FIFO; 4096 covers every in-flight batch of any plausible fleet
// many times over (a worker holds at most a handful of unacked batches).
const maxDeliveries = 4096

// CoordinatorConfig wires a coordinator to a campaign.
type CoordinatorConfig struct {
	// Store is the canonical (merged) campaign store. The campaign and
	// target definitions must already be in it.
	Store    *campaign.Store
	Campaign *campaign.Campaign
	Target   *campaign.TargetSystemData
	// RunOptions are the submission's run options, handed out whole with
	// every lease.
	core.RunOptions
	// Shards is how many ranges the plan is partitioned into.
	Shards int
	// HeartbeatEvery is the lease liveness cadence (default
	// DefaultHeartbeat); a lease expires after LeaseTTL without a beat
	// (default 3×HeartbeatEvery).
	HeartbeatEvery time.Duration
	LeaseTTL       time.Duration
	// MaxWorkerFailures quarantines a worker after this many expired
	// leases (default DefaultMaxWorkerFailures).
	MaxWorkerFailures int
	// NowFunc is the clock (test hook; default time.Now).
	NowFunc func() time.Time
}

type lease struct {
	id      string
	worker  string
	rng     Range
	expires time.Time
}

// workerInfo is what the coordinator remembers about a fleet member:
// when it appeared, when it last proved liveness, and where it came
// from. Liveness updates on every hello, lease, heartbeat and report.
type workerInfo struct {
	host       string
	registered time.Time
	lastBeat   time.Time
}

// Coordinator runs the shard protocol for one campaign. All methods are
// safe for concurrent use.
type Coordinator struct {
	cfg CoordinatorConfig
	// sink is the write-behind queue in front of the store, the one a solo
	// run logs through: accepted rows are committed to it in stored form.
	sink *campaign.BatchingSink

	mu       sync.Mutex
	pending  []Range
	leases   map[string]*lease
	accepted campaign.SeqRanges // sequences merged (or queued for merge)
	haveRef  bool
	// ref is the merged reference row and refSum the checksum the relative
	// rows stored against it carry; checkRef says the target is
	// deterministic, so every lease's reference must be this one.
	ref      campaign.Row
	refSum   uint32
	checkRef bool
	failures map[string]int
	quarant  map[string]bool
	workers  map[string]*workerInfo
	leaseSeq int
	closed   bool
	doneCh   chan struct{}
	stopCh   chan struct{}
	// wake is closed, and replaced, whenever a parked Lease could now be
	// answered: a range went pending, the campaign completed, or the
	// coordinator closed.
	wake chan struct{}

	// deliveries caches the acknowledgement of every keyed report batch
	// (FIFO-evicted at maxDeliveries) so a retried delivery is re-acked,
	// not re-processed. delivOrder tracks insertion for eviction.
	deliveries map[string]ReportResponse
	delivOrder []string

	sweeper   sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// NewCoordinator builds a coordinator and recovers its progress from the
// store: sequences whose end records are already durable (a previous
// coordinator's merges) are treated as accepted, and only the holes are
// queued — a coordinator restart resumes the campaign instead of
// redoing it.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Store == nil || cfg.Campaign == nil || cfg.Target == nil {
		return nil, fmt.Errorf("shard: coordinator needs a store, campaign and target")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", cfg.Shards)
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeat
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * cfg.HeartbeatEvery
	}
	if cfg.LeaseTTL < minTTLRatio*cfg.HeartbeatEvery {
		return nil, fmt.Errorf("shard: lease TTL %v < %d heartbeats of %v — one lost beat would expire healthy leases",
			cfg.LeaseTTL, minTTLRatio, cfg.HeartbeatEvery)
	}
	if cfg.MaxWorkerFailures <= 0 {
		cfg.MaxWorkerFailures = DefaultMaxWorkerFailures
	}
	if cfg.NowFunc == nil {
		cfg.NowFunc = time.Now
	}
	cp, err := cfg.Store.RecoverCursor(cfg.Campaign.Name)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:        cfg,
		sink:       campaign.NewBatchingSink(cfg.Store, 0),
		leases:     make(map[string]*lease),
		accepted:   cp.Ranges,
		failures:   make(map[string]int),
		quarant:    make(map[string]bool),
		workers:    make(map[string]*workerInfo),
		deliveries: make(map[string]ReportResponse),
		doneCh:     make(chan struct{}),
		stopCh:     make(chan struct{}),
		wake:       make(chan struct{}),
	}
	c.haveRef = cp.Reference
	c.checkRef = deterministic(cfg.RunOptions)
	if c.haveRef {
		if c.ref, err = cfg.Store.ReferenceRow(cfg.Campaign.Name); err != nil {
			return nil, err
		}
		c.refSum = c.ref.StateSum()
	}
	// Queue the holes: the full plan on a fresh campaign, the remainder
	// after a restart. Runs are re-split to the partition granularity so a
	// restart still spreads across the fleet.
	per := (cfg.Campaign.NumExperiments + cfg.Shards - 1) / cfg.Shards
	for _, hole := range c.accepted.Holes(0, cfg.Campaign.NumExperiments) {
		for lo := hole[0]; lo <= hole[1]; lo += per {
			c.pending = append(c.pending, Range{Lo: lo, Hi: min(lo+per, hole[1]+1)})
		}
	}
	if c.complete() {
		close(c.doneCh)
	}
	// Background sweeper: expires dead leases even when no worker is
	// calling in (all workers dead must still requeue their ranges).
	c.sweeper.Add(1)
	go func() {
		defer c.sweeper.Done()
		t := time.NewTicker(cfg.LeaseTTL / 2)
		defer t.Stop()
		for {
			select {
			case <-c.stopCh:
				return
			case <-t.C:
				c.Sweep()
			}
		}
	}()
	return c, nil
}

// deterministic reports whether the campaign's target promises the same rows
// from every worker (core.TargetDeterministic). A kind that does not resolve
// is checked like the simulator's; no worker can run it anyway.
func deterministic(o core.RunOptions) bool {
	info, _, err := core.ResolveTarget(o.TargetKind, o.Technique)
	if err != nil {
		return true
	}
	ts, err := info.New(core.TargetConfig{Params: o.TargetParams})
	return err != nil || core.TargetDeterministic(ts)
}

// complete reports whether every sequence and the reference are merged.
// Callers hold c.mu.
func (c *Coordinator) complete() bool {
	return c.haveRef && c.accepted.Len() >= c.cfg.Campaign.NumExperiments &&
		len(c.pending) == 0 && len(c.leases) == 0
}

// touchWorker records liveness for a worker, creating its fleet entry
// on first contact. Callers hold c.mu.
func (c *Coordinator) touchWorker(name string, now time.Time) *workerInfo {
	w := c.workers[name]
	if w == nil {
		w = &workerInfo{registered: now}
		c.workers[name] = w
	}
	w.lastBeat = now
	return w
}

// Hello registers a worker with the fleet before it leases any work.
// Registration is advisory for the lease protocol but it is the call on
// which an external worker discovers a bad token, and it makes the
// fleet visible in /progress from the first connection.
//
// A worker of another protocol version is refused with ErrProtocol and
// retired like a quarantined one: a build that ignores the refusal and
// leases anyway is told there is no work for it, instead of being handed
// a range whose reports the coordinator could not read.
func (c *Coordinator) Hello(req HelloRequest) (HelloResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.touchWorker(req.Worker, c.cfg.NowFunc())
	if req.Host != "" {
		w.host = req.Host
	}
	if req.Protocol != ProtocolVersion {
		c.quarant[req.Worker] = true
		return HelloResponse{}, fmt.Errorf("%w: worker %q speaks version %d, this coordinator %d — run the same goofi build on both sides",
			ErrProtocol, req.Worker, req.Protocol, ProtocolVersion)
	}
	return HelloResponse{Status: "ok", Workers: len(c.workers), Protocol: ProtocolVersion}, nil
}

// Fleet reports every worker the coordinator has heard from, sorted by
// name, with its live lease count, expiry tally and heartbeat age —
// the membership view /progress serves for a sharded job.
func (c *Coordinator) Fleet() []telemetry.WorkerStatus {
	now := c.cfg.NowFunc()
	c.mu.Lock()
	defer c.mu.Unlock()
	held := make(map[string]int, len(c.leases))
	for _, l := range c.leases {
		held[l.worker]++
	}
	out := make([]telemetry.WorkerStatus, 0, len(c.workers))
	for name, w := range c.workers {
		out = append(out, telemetry.WorkerStatus{
			Name:        name,
			Host:        w.host,
			Quarantined: c.quarant[name],
			Leases:      held[name],
			Failures:    c.failures[name],
			LastBeatAge: now.Sub(w.lastBeat).Seconds(),
		})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// Lease grants the next pending range to a worker. When every range is
// leased out and the campaign is not complete, the call parks until a
// range goes pending (a final report's remainder, a sweep's requeue), the
// campaign completes or the coordinator closes, and answers that; it gives
// up with LeaseWait when ctx ends or after parkLimit, which keeps a parked
// HTTP request far inside the worker's call timeout. The worker asks again
// at once, so no completion ever waits out a poll interval.
func (c *Coordinator) Lease(ctx context.Context, req LeaseRequest) LeaseResponse {
	var limit *time.Timer
	for {
		c.mu.Lock()
		now := c.cfg.NowFunc()
		c.touchWorker(req.Worker, now)
		c.sweepLocked(now)
		resp := c.grantLocked(req.Worker, now)
		wake := c.wake
		c.mu.Unlock()
		if resp.Status != LeaseWait {
			return resp
		}
		if limit == nil {
			limit = time.NewTimer(c.parkLimit())
			defer limit.Stop()
			defer func(start time.Time) { mLeaseParked.Observe(time.Since(start).Seconds()) }(time.Now())
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return resp
		case <-limit.C:
			return resp
		}
	}
}

// parkLimit bounds how long a Lease waits for work: a heartbeat period,
// and never more than half the transport's default call timeout.
func (c *Coordinator) parkLimit() time.Duration {
	return min(c.cfg.HeartbeatEvery, DefaultCallTimeout/2)
}

// grantLocked answers a lease request from the current state, without
// waiting. Callers hold c.mu.
func (c *Coordinator) grantLocked(worker string, now time.Time) LeaseResponse {
	if c.closed || c.quarant[worker] {
		// A quarantined worker is retired exactly like a failed board:
		// it gets no more work, the fleet shrinks by one.
		return LeaseResponse{Status: LeaseDone}
	}
	if len(c.pending) == 0 {
		if c.complete() {
			return LeaseResponse{Status: LeaseDone}
		}
		return LeaseResponse{Status: LeaseWait, HeartbeatEvery: c.cfg.HeartbeatEvery}
	}
	rng := c.pending[0]
	c.pending = c.pending[1:]
	c.leaseSeq++
	l := &lease{
		id:      fmt.Sprintf("l%04d", c.leaseSeq),
		worker:  worker,
		rng:     rng,
		expires: now.Add(c.cfg.LeaseTTL),
	}
	c.leases[l.id] = l
	return LeaseResponse{
		Status:         LeaseRange,
		LeaseID:        l.id,
		Range:          rng,
		Campaign:       c.cfg.Campaign,
		Target:         c.cfg.Target,
		RunOptions:     c.cfg.RunOptions,
		HeartbeatEvery: c.cfg.HeartbeatEvery,
	}
}

// wakeLocked releases every parked Lease to look at the state again.
// Callers hold c.mu.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// Heartbeat extends a lease; ErrBadLease tells the worker its lease is
// gone (expired and requeued, or lost to a coordinator restart) and the
// range should be abandoned.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.NowFunc()
	c.touchWorker(req.Worker, now)
	l := c.leases[req.LeaseID]
	if l == nil || l.worker != req.Worker {
		return ErrBadLease
	}
	l.expires = now.Add(c.cfg.LeaseTTL)
	return nil
}

// ReportFrame is Report for a frame off the wire (frame.go); body is
// handed over, the merged rows alias it. A frame that does not decode is
// ErrBadFrame, or ErrProtocol when it is another version's.
func (c *Coordinator) ReportFrame(body []byte) (ReportResponse, error) {
	req, err := DecodeReport(body)
	if err != nil {
		return ReportResponse{}, err
	}
	mReportBytes.Add(uint64(len(body)))
	return c.Report(*req)
}

// Report merges a batch of rows for a lease. Only rows the lease covers
// and that have not been merged before are accepted: end rows by sequence
// number, the reference once per campaign, and detail-mode trace rows
// with their parent. Accepted rows go to the store as they came — the
// worker's bytes, not a re-encoding — as one commit of the sink; a final
// report's commit is a durable one, so retiring a range implies its rows,
// and everything reported before them, are stored and past a barrier.
func (c *Coordinator) Report(req ReportRequest) (ReportResponse, error) {
	mReportRows.Add(uint64(len(req.Rows)))
	c.mu.Lock()
	now := c.cfg.NowFunc()
	c.touchWorker(req.Worker, now)
	if req.Delivery != "" {
		if resp, ok := c.deliveries[req.Delivery]; ok {
			// A retried delivery of a batch that already landed: the
			// response was lost (timeout, reset, asymmetric partition),
			// not the request. Acknowledge from the cache — even when the
			// lease is gone, because a retried *final* report retired it
			// the first time through — and count it as a beat when the
			// lease still lives.
			if l := c.leases[req.LeaseID]; l != nil && l.worker == req.Worker {
				l.expires = now.Add(c.cfg.LeaseTTL)
			}
			c.mu.Unlock()
			mDelivDeduped.Inc()
			return resp, nil
		}
	}
	l := c.leases[req.LeaseID]
	if l == nil || l.worker != req.Worker {
		c.mu.Unlock()
		return ReportResponse{}, ErrBadLease
	}
	l.expires = now.Add(c.cfg.LeaseTTL) // a report is a heartbeat
	name := c.cfg.Campaign.Name
	refName := campaign.ReferenceName(name)
	if err := c.checkReferenceLocked(req.Rows, refName); err != nil {
		// Rows against another reference are a bug, not noise: none of the
		// batch goes in, the worker is retired and its range re-queued.
		delete(c.leases, req.LeaseID)
		c.requeueLocked(l)
		c.quarant[req.Worker] = true
		c.wakeLocked()
		c.mu.Unlock()
		return ReportResponse{}, fmt.Errorf("%w: worker %q, lease %s: %w", ErrReferenceMismatch, req.Worker, req.LeaseID, err)
	}
	// taken are end rows accepted from this batch; trace rows ride along
	// with their parent. Two passes, so a batch may carry a group's trace
	// rows before or after its end row.
	taken := make(map[string]bool)
	ingest := make([]campaign.Row, 0, len(req.Rows))
	for i := range req.Rows {
		row := &req.Rows[i]
		if row.Campaign() != name || row.Step() >= 0 {
			continue
		}
		if row.Name() == refName {
			if !c.haveRef {
				c.haveRef, c.ref, c.refSum = true, *row, row.StateSum()
				taken[refName] = true
				ingest = append(ingest, *row)
			}
			continue
		}
		if row.Seq < l.rng.Lo || row.Seq >= l.rng.Hi || c.accepted.Has(row.Seq) {
			continue
		}
		c.accepted = c.accepted.Add(row.Seq)
		taken[row.Name()] = true
		ingest = append(ingest, *row)
	}
	for i := range req.Rows {
		if row := &req.Rows[i]; row.Campaign() == name && row.Step() >= 0 && taken[row.Parent()] {
			ingest = append(ingest, *row)
		}
	}
	final := req.Final
	if final {
		delete(c.leases, req.LeaseID)
		// Anything the range did not deliver goes back in the queue.
		c.requeueLocked(l)
		// Either there is a range to hand out now or the plan may be
		// covered: a worker parked in Lease gets its answer.
		c.wakeLocked()
	}
	done := final && c.complete()
	c.mu.Unlock()

	// The commit happens outside the lock so the sink's backpressure stalls
	// only reporters, never leases or heartbeats.
	if err := c.sink.CommitRows(ingest, final); err != nil {
		return ReportResponse{}, err
	}
	resp := ReportResponse{Accepted: len(ingest)}
	c.mu.Lock()
	// The commit may have stalled on backpressure — time spent queued in the
	// merge is the coordinator's, not the worker's, so it must not count
	// against the lease (which a final report has retired already).
	if l := c.leases[req.LeaseID]; l != nil && l.worker == req.Worker {
		l.expires = c.cfg.NowFunc().Add(c.cfg.LeaseTTL)
	}
	if req.Delivery != "" {
		// Only a fully processed (and, for final reports, durably
		// flushed) delivery is cached; an errored one must re-process.
		c.cacheDeliveryLocked(req.Delivery, resp)
	}
	c.mu.Unlock()
	if done {
		c.finish()
	}
	return resp, nil
}

// checkReferenceLocked holds a batch against the merged reference, or the
// batch's own when none is merged yet: on a deterministic target every
// reference row must be that row byte for byte, and every relative row must
// carry its checksum — four bytes a row, nothing decoded. Callers hold c.mu.
func (c *Coordinator) checkReferenceLocked(rows []campaign.Row, refName string) error {
	if !c.checkRef {
		return nil
	}
	ref, sum, have := &c.ref, c.refSum, c.haveRef
	for i := range rows {
		row := &rows[i]
		if row.Name() != refName || row.Step() >= 0 {
			continue
		}
		if !have {
			ref, sum, have = row, row.StateSum(), true
		} else if !row.Equal(ref) {
			return errors.New("its reference row differs from the merged one")
		}
	}
	for i := range rows {
		if got, ok := rows[i].RefSum(); ok && have && got != sum {
			return fmt.Errorf("%s is stored relative to reference checksum %08x, the merged reference's is %08x",
				rows[i].Name(), got, sum)
		}
	}
	return nil
}

// cacheDeliveryLocked remembers a delivery's acknowledgement, evicting
// the oldest entry past maxDeliveries. Callers hold c.mu.
func (c *Coordinator) cacheDeliveryLocked(key string, resp ReportResponse) {
	if _, ok := c.deliveries[key]; !ok {
		c.delivOrder = append(c.delivOrder, key)
		if len(c.delivOrder) > maxDeliveries {
			delete(c.deliveries, c.delivOrder[0])
			c.delivOrder = c.delivOrder[1:]
		}
	}
	c.deliveries[key] = resp
}

// requeueLocked returns a lease's unmerged sequences to the pending
// queue as maximal runs. Callers hold c.mu.
func (c *Coordinator) requeueLocked(l *lease) {
	for _, hole := range c.accepted.Holes(l.rng.Lo, l.rng.Hi) {
		c.pending = append(c.pending, Range{Lo: hole[0], Hi: hole[1] + 1})
	}
}

// Sweep expires every lease whose heartbeat lapsed, requeues its
// unmerged sequences, and quarantines workers that keep dying. It runs
// from the background ticker and at the top of every Lease call.
func (c *Coordinator) Sweep() {
	c.mu.Lock()
	done := false
	c.sweepLocked(c.cfg.NowFunc())
	// Expiring the last outstanding lease can complete the campaign
	// (its sequences may all have been merged by non-final reports).
	done = c.complete() && !c.closed
	c.mu.Unlock()
	if done {
		c.finish()
	}
}

func (c *Coordinator) sweepLocked(now time.Time) {
	expired := false
	for id, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		expired = true
		delete(c.leases, id)
		c.requeueLocked(l)
		c.failures[l.worker]++
		if c.failures[l.worker] >= c.cfg.MaxWorkerFailures {
			c.quarant[l.worker] = true
		}
	}
	if expired {
		c.wakeLocked()
	}
}

// finish signals Done exactly once.
func (c *Coordinator) finish() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	select {
	case <-c.doneCh:
		c.mu.Unlock()
		return
	default:
	}
	close(c.doneCh)
	c.wakeLocked()
	c.mu.Unlock()
}

// Done is closed once every sequence and the reference are durably
// merged.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Err surfaces the first merge error (a store write failure poisons the
// sink).
func (c *Coordinator) Err() error { return c.sink.Err() }

// Progress reports merged experiments out of the plan total.
func (c *Coordinator) Progress() (done, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.accepted.Len(), c.cfg.Campaign.NumExperiments
}

// Complete reports whether the campaign fully merged.
func (c *Coordinator) Complete() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.haveRef && c.accepted.Len() >= c.cfg.Campaign.NumExperiments
}

// Close stops the sweeper and drains the sink behind a last barrier, so
// what non-final reports queued is durable too. The store stays open (the
// coordinator never owned it). Closing again returns the first result.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		close(c.stopCh)
		c.wakeLocked()
		c.mu.Unlock()
		c.sweeper.Wait()
		c.closeErr = c.sink.CommitRows(nil, true)
		if err := c.sink.Close(); c.closeErr == nil {
			c.closeErr = err
		}
	})
	return c.closeErr
}
