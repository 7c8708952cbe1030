// Package server is the goofid daemon: a long-running, multi-tenant
// campaign service wrapping the same campaign/core/analysis layers the
// goofi CLI drives. Campaigns are submitted over an HTTP/JSON API, run
// concurrently on one shared board fleet (core.Fleet leases boards
// fairly across them), and live in per-tenant WAL-backed databases
// (campaign.TenantDBs). Because the scheduler draws the full injection
// plan from the campaign seed up front, a campaign's results are
// byte-identical whether it runs alone under `goofi run` or next to
// other tenants under goofid.
package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/shard"
	"goofi/internal/sqldb"
)

// Config sizes the daemon.
type Config struct {
	// DataDir holds one <tenant>.db (+ WAL) per tenant.
	DataDir string
	// Boards is the shared fleet size campaigns lease from (default 4).
	Boards int
	// MaxConcurrent is how many campaigns run at once (default 2).
	MaxConcurrent int
	// QueueDepth caps campaigns accepted but not yet running; a full
	// queue turns submissions away with 429 (default 8).
	QueueDepth int
	// CompactInterval sweeps idle tenant databases back into their
	// snapshots this often (0 disables the sweeper).
	CompactInterval time.Duration
	// DefaultShards, when above zero, runs every submission that does
	// not pick its own shard count through the sharded path with this
	// many in-process workers (the `goofid -shards` knob).
	DefaultShards int
	// ShardHeartbeat is the lease heartbeat period for sharded
	// campaigns (default shard.DefaultHeartbeat).
	ShardHeartbeat time.Duration
	// ShardLeaseTTL is how long a lease survives without a heartbeat
	// (default 3×ShardHeartbeat). Must be at least two heartbeats — a
	// smaller TTL would let a single delayed beat expire healthy leases,
	// so New rejects it at startup instead of failing every sharded job.
	ShardLeaseTTL time.Duration
	// ShardToken, when set, requires external shard workers to present
	// it as a bearer token on every shard call; mismatches get 401.
	// In-process workers bypass HTTP entirely and are unaffected.
	ShardToken string
}

func (c *Config) setDefaults() {
	if c.Boards <= 0 {
		c.Boards = 4
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
}

// Server owns the fleet, the tenant databases, and the job queue. Build
// one with New, mount Handler on a listener, and Shutdown when done.
type Server struct {
	cfg     Config
	fleet   *core.Fleet
	tenants *campaign.TenantDBs
	mux     *http.ServeMux

	baseCtx context.Context
	cancel  context.CancelFunc
	stopCh  chan struct{} // closed on Shutdown/Kill: stop admitting work

	mu     sync.Mutex
	jobs   map[string]*job
	admit  chan *job
	closed bool

	submitMu sync.Mutex // serializes handleSubmit's persist-then-enqueue

	wg sync.WaitGroup // consumers + compaction sweeper
}

// New builds and starts a server: recovers interrupted jobs from the
// data directory, then begins draining the queue.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	if err := validateShardTiming(cfg.ShardHeartbeat, cfg.ShardLeaseTTL); err != nil {
		return nil, err
	}
	tenants, err := campaign.NewTenantDBs(cfg.DataDir, sqldb.SyncBarrier)
	if err != nil {
		return nil, err
	}
	fleet, err := core.NewFleet(cfg.Boards)
	if err != nil {
		tenants.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		fleet:   fleet,
		tenants: tenants,
		baseCtx: ctx,
		cancel:  cancel,
		stopCh:  make(chan struct{}),
		jobs:    make(map[string]*job),
		admit:   make(chan *job, cfg.QueueDepth),
	}
	s.mux = s.routes()
	if err := s.recoverJobs(); err != nil {
		cancel()
		tenants.Close()
		return nil, err
	}
	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.wg.Add(1)
		go s.consume()
	}
	if cfg.CompactInterval > 0 {
		s.wg.Add(1)
		go s.sweep()
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler (campaign API plus the
// merged telemetry endpoints).
func (s *Server) Handler() http.Handler { return s.mux }

// Fleet exposes the shared board fleet (read-side, for status output).
func (s *Server) Fleet() *core.Fleet { return s.fleet }

func (s *Server) consume() {
	defer s.wg.Done()
	for j := range s.admit {
		select {
		case <-s.stopCh:
			// Shutting down: leave the job pending (in memory and in its
			// durable row) for the next boot to resume.
			continue
		default:
		}
		s.execute(s.baseCtx, j)
	}
}

func (s *Server) sweep() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			_, _ = s.tenants.CompactIdle(s.cfg.CompactInterval)
		}
	}
}

// validateShardTiming mirrors the coordinator's TTL/heartbeat floor at
// daemon startup, so a misconfigured deployment fails its boot rather
// than every sharded campaign it accepts.
func validateShardTiming(beat, ttl time.Duration) error {
	if ttl <= 0 {
		return nil // coordinator default: 3×beat, always valid
	}
	if beat <= 0 {
		beat = shard.DefaultHeartbeat
	}
	if ttl < 2*beat {
		return fmt.Errorf("server: shard lease TTL %v < 2 heartbeats of %v — one lost beat would expire healthy leases", ttl, beat)
	}
	return nil
}

var (
	errQueueFull = fmt.Errorf("server: campaign queue full")
	errClosed    = fmt.Errorf("server: shutting down")
	errDuplicate = fmt.Errorf("server: campaign already queued or running")
)

// enqueue admits a job or reports why it cannot run. A key may be
// reused once its previous job reached a terminal state.
func (s *Server) enqueue(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if prev, ok := s.jobs[j.key()]; ok {
		switch prev.snapshot().State {
		case StateDone, StateFailed, StateCancelled:
		default:
			return errDuplicate
		}
	}
	select {
	case s.admit <- j:
		s.jobs[j.key()] = j
		return nil
	default:
		return errQueueFull
	}
}

func (s *Server) lookup(tenant, name string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[jobKey(tenant, name)]
}

func (s *Server) jobList() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	return out
}

// markClosed flips the server into its draining state exactly once.
func (s *Server) markClosed() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stopCh)
		close(s.admit)
	}
	s.mu.Unlock()
}

// Shutdown stops the daemon gracefully: no new admissions, running
// campaigns stop at their next durable cursor, queued jobs stay pending
// for the next boot, and every tenant database is checkpointed and
// closed. If ctx expires first the remaining campaigns are cut off hard
// (their WAL still replays on the next boot).
func (s *Server) Shutdown(ctx context.Context) error {
	s.markClosed()
	for _, j := range s.jobList() {
		j.mu.Lock()
		if j.work != nil {
			j.work.stop()
		}
		j.mu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancel()
		<-done
	}
	s.cancel()
	return s.tenants.Close()
}

// Kill is the in-process equivalent of kill -9, for crash-recovery
// tests: running campaigns are aborted mid-flight and the tenant
// databases are abandoned without a checkpoint or close, leaving only
// what the WAL already made durable. A new server on the same DataDir
// must replay the logs and resume every pending job.
func (s *Server) Kill() {
	s.markClosed()
	s.cancel()
	s.wg.Wait()
}
