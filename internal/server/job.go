package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/shard"
	"goofi/internal/sqldb"
	"goofi/internal/telemetry"
	"goofi/internal/workload"

	// Registered target systems. The daemon reaches every target through
	// the core registry; the blank imports run each RegisterTarget init.
	_ "goofi/internal/pinlevel"
	_ "goofi/internal/proctarget"
	_ "goofi/internal/scifi"
	_ "goofi/internal/swifi"
)

// SubmitRequest is the POST /api/v1/campaigns body: everything goofid
// needs to configure, set up, and run one campaign in a tenant's
// namespace. The zero values of the optional fields reproduce the
// `goofi run` defaults, which is what keeps a submitted campaign
// byte-identical to a CLI run of the same definition.
type SubmitRequest struct {
	// Tenant selects the namespace (its own database file).
	Tenant string `json:"tenant"`
	// Campaign is the full campaign definition (the CampaignData row).
	Campaign *campaign.Campaign `json:"campaign"`
	// RunOptions are the run options, the ones a sharded job's leases
	// carry too. TargetKind (default scifi) also configures the target
	// system server-side when the tenant database does not hold it yet;
	// Technique defaults to the target kind's own algorithm.
	core.RunOptions
	// Boards caps this campaign's parallelism on the shared fleet
	// (default 1).
	Boards int `json:"boards,omitempty"`
	// Checkpoint is a solo job's durable-cursor interval in experiments
	// (default core.DefaultCheckpointInterval; -1 disables). A sharded
	// submission that sets it is rejected.
	Checkpoint int `json:"checkpoint,omitempty"`
	// Shards above zero runs the campaign through the sharded path,
	// partitioned into that many ranges. Zero inherits the daemon's
	// -shards default (still zero = solo execution).
	Shards int `json:"shards,omitempty"`
	// ExternalWorkers leaves execution to `goofi shard-worker`
	// processes attaching over HTTP instead of spawning in-process
	// workers, one per shard.
	ExternalWorkers bool `json:"externalWorkers,omitempty"`
}

// errShardedCheckpoint rejects a sharded submission that sets the cursor
// interval: shard workers are stateless and the coordinator commits rows as
// reports arrive, so the value would be accepted and govern nothing.
var errShardedCheckpoint = errors.New("checkpoint set on a sharded campaign: the cursor interval applies to solo jobs only (shard workers keep no cursor)")

// normalize fills the defaulted fields in place. Target kind and
// technique default through core.ResolveTarget, the rule the CLI uses; a
// pair it cannot resolve is left for validate to reject.
func (sr *SubmitRequest) normalize() {
	if info, alg, err := core.ResolveTarget(sr.TargetKind, sr.Technique); err == nil {
		sr.TargetKind = info.Kind // canonicalize aliases
		sr.Technique = alg.Name
	}
	if sr.Boards <= 0 {
		sr.Boards = 1
	}
	if sr.Checkpoint == 0 {
		sr.Checkpoint = core.DefaultCheckpointInterval
	}
	if sr.Campaign != nil {
		// The CLI resolves built-in workloads by name and defaults the
		// log mode; a JSON submission gets the same ergonomics.
		if sr.Campaign.Workload.Source == "" {
			if spec, ok := workload.All()[sr.Campaign.Workload.Name]; ok {
				sr.Campaign.Workload = spec
			}
		}
		if sr.Campaign.LogMode == "" {
			sr.Campaign.LogMode = campaign.LogNormal
		}
	}
}

// validate rejects a submission before any state is created.
func (sr *SubmitRequest) validate() error {
	if !campaign.ValidTenant(sr.Tenant) {
		return fmt.Errorf("invalid tenant name %q", sr.Tenant)
	}
	if sr.Campaign == nil {
		return fmt.Errorf("submission has no campaign definition")
	}
	if err := sr.Campaign.Validate(); err != nil {
		return err
	}
	if _, _, err := core.ResolveTarget(sr.TargetKind, sr.Technique); err != nil {
		return err
	}
	if sr.Shards < 0 {
		return fmt.Errorf("negative shard count %d", sr.Shards)
	}
	return nil
}

// targetData builds the TargetSystemData for the request's target kind.
func (sr *SubmitRequest) targetData() (*campaign.TargetSystemData, error) {
	info, ok := core.LookupTarget(sr.TargetKind)
	if !ok {
		return nil, fmt.Errorf("unknown target kind %q", sr.TargetKind)
	}
	return info.SystemData(sr.Campaign.TargetName, core.TargetConfig{Params: sr.TargetParams})
}

// Job lifecycle states. Pending and running jobs become pending again
// on a daemon restart (recovery resumes them); done, failed and
// cancelled are terminal.
const (
	StatePending   = "pending"
	StateRunning   = "running"
	StatePaused    = "paused"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// job is one submitted campaign: the durable spec plus the live state
// while it executes.
type job struct {
	spec    SubmitRequest
	recover bool // re-enqueued at boot: resume from the durable cursor

	mu        sync.Mutex
	state     string
	errMsg    string
	summary   *core.Summary
	work      *work              // set once started, dropped once terminal
	coord     *shard.Coordinator // sharded path: what the shard handlers serve
	prog      *telemetry.Progress
	cancelled bool // user cancel (vs. daemon shutdown stop)
}

// work is a started job as its executor sees it, whatever produces the
// rows: a runner on the daemon's own fleet, or shard workers reporting to a
// coordinator.
type work struct {
	// stop asks the work to end at its next durable point. It may be
	// called at any time, more than once.
	stop func()
	// wait blocks until the work has ended and everything it logged is in
	// the store. complete says the whole plan is; err is why it is not,
	// when that is a failure and not a stop.
	wait func() (sum *core.Summary, complete bool, err error)
	// runner is set where the work can pause and resume.
	runner *core.Runner
}

func (j *job) key() string { return jobKey(j.spec.Tenant, j.spec.Campaign.Name) }

func jobKey(tenant, name string) string { return tenant + "/" + name }

// setState moves the job to state. A terminal state lets go of the work in
// the same critical section, so no handler finds it half gone: a finished
// job keeps its summary and, sharded, the coordinator late workers ask,
// but not the runner, its plan and its forward set for the daemon's life.
func (j *job) setState(state, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	switch state {
	case StateDone, StateFailed, StateCancelled:
		j.work = nil
	}
	j.mu.Unlock()
}

// snapshot returns the job's API status view.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		Tenant:   j.spec.Tenant,
		Campaign: j.spec.Campaign.Name,
		State:    j.state,
		Error:    j.errMsg,
		Summary:  j.summary,
	}
	if j.prog != nil {
		s := j.prog.Snapshot()
		st.Progress = &s
	}
	return st
}

// Durable job table, one per tenant database: the daemon's boot
// recovery re-enqueues every row still marked pending.
const jobsDDL = `CREATE TABLE IF NOT EXISTS ServerJob (
		campaignName TEXT PRIMARY KEY,
		spec         BLOB NOT NULL,
		state        TEXT NOT NULL
	)`

func ensureJobTable(db *sqldb.DB) error {
	_, err := db.Exec(jobsDDL)
	return err
}

// putJobRow inserts or replaces the durable job row and raises a
// durability barrier, so an accepted submission survives a crash.
func putJobRow(db *sqldb.DB, spec *SubmitRequest, state string) error {
	blob, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("server: marshal job spec: %w", err)
	}
	name := spec.Campaign.Name
	n, err := db.Exec(`UPDATE ServerJob SET spec = ?, state = ? WHERE campaignName = ?`,
		sqldb.Blob(blob), sqldb.Text(state), sqldb.Text(name))
	if err != nil {
		return err
	}
	if n == 0 {
		if _, err := db.Exec(`INSERT INTO ServerJob VALUES (?, ?, ?)`,
			sqldb.Text(name), sqldb.Blob(blob), sqldb.Text(state)); err != nil {
			return err
		}
	}
	return db.Barrier()
}

func setJobRowState(db *sqldb.DB, name, state string) error {
	if _, err := db.Exec(`UPDATE ServerJob SET state = ? WHERE campaignName = ?`,
		sqldb.Text(state), sqldb.Text(name)); err != nil {
		return err
	}
	return db.Barrier()
}

// pendingJobRows loads the specs of every non-terminal job in a tenant
// database.
func pendingJobRows(db *sqldb.DB) ([]*SubmitRequest, error) {
	if err := ensureJobTable(db); err != nil {
		return nil, err
	}
	r, err := db.Query(`SELECT spec FROM ServerJob WHERE state = ?`, sqldb.Text(StatePending))
	if err != nil {
		return nil, err
	}
	var out []*SubmitRequest
	for _, row := range r.Rows {
		var spec SubmitRequest
		if err := json.Unmarshal(row[0].B, &spec); err != nil {
			return nil, fmt.Errorf("server: unmarshal job spec: %w", err)
		}
		out = append(out, &spec)
	}
	return out, nil
}

// execute is the job state machine, the only one: it owns the prologue,
// the cancel race and the epilogue — drain, compact the tenant database,
// settle the state in memory and in the durable row — for every job. What
// differs between a solo and a sharded job is where the rows come from, and
// that is the starter's: it returns the work to stop and to wait for.
func (s *Server) execute(ctx context.Context, j *job) {
	spec := &j.spec
	name := spec.Campaign.Name
	// The durable row first: the API never shows a state the job row lacks.
	settle := func(state string, err error) {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		s.markDurable(name, spec.Tenant, state)
		j.setState(state, msg)
	}
	// A queued job can be cancelled before it ever starts.
	j.mu.Lock()
	cancelled := j.cancelled
	j.mu.Unlock()
	if cancelled {
		settle(StateCancelled, nil)
		return
	}
	st, db, release, err := s.tenants.Acquire(spec.Tenant)
	if err != nil {
		settle(StateFailed, err)
		return
	}
	defer release()
	camp, err := st.GetCampaign(name)
	if err != nil {
		settle(StateFailed, err)
		return
	}
	tsd, err := st.GetTargetSystem(camp.TargetName)
	if err != nil {
		settle(StateFailed, err)
		return
	}
	prog := telemetry.NewProgress(s.fleet.Capacity())
	start := s.startSolo
	if spec.Shards > 0 {
		start = s.startSharded
	}
	w, err := start(ctx, j, st, camp, tsd, spec.RunOptions, prog)
	if err != nil {
		settle(StateFailed, err)
		return
	}
	j.mu.Lock()
	j.work = w
	j.prog = prog
	j.state = StateRunning
	if j.cancelled {
		// Cancel raced the startup: the handler had nothing to stop.
		w.stop()
	}
	j.mu.Unlock()

	sum, complete, err := w.wait()
	j.mu.Lock()
	j.summary = sum
	cancelled = j.cancelled
	j.mu.Unlock()

	if ctx.Err() != nil {
		// Killed (crash simulation or hard daemon stop): leave the
		// durable state exactly as the interrupted run left it — the
		// pending job row plus the WAL — for recovery on the next boot.
		j.setState(StatePending, "")
		return
	}
	if err == nil {
		err = db.Checkpoint()
	}
	switch {
	case err != nil:
		settle(StateFailed, err)
	case cancelled:
		settle(StateCancelled, nil)
	case complete:
		settle(StateDone, nil)
	default:
		// Stopped short without a user cancel: the daemon is shutting
		// down. The durable row stays pending so the next boot resumes.
		j.setState(StatePending, "")
	}
}

// startSolo runs the campaign on the daemon's own fleet through
// core.Assemble — the assembly `goofi run` and `goofi resume` (for recovered
// jobs) use. A recovered job resumes from whatever the interrupted run made
// durable; a fresh submission starts from a clean slate.
func (s *Server) startSolo(ctx context.Context, j *job, st *campaign.Store, camp *campaign.Campaign,
	tsd *campaign.TargetSystemData, opts core.RunOptions, prog *telemetry.Progress) (*work, error) {
	rs := opts.RunSpec()
	rs.Store, rs.Campaign, rs.Target = st, camp, tsd
	rs.Boards, rs.Fleet = j.spec.Boards, s.fleet
	rs.Checkpoint = j.spec.Checkpoint
	rs.Resume = j.recover
	rs.Tracer, rs.Progress = telemetry.NewTracer(), prog
	cr, err := core.Assemble(rs)
	if err != nil {
		return nil, err
	}
	return &work{
		stop:   cr.Runner.Stop,
		runner: cr.Runner,
		wait: func() (*core.Summary, bool, error) {
			defer cr.Close()
			sum, err := cr.Run(ctx)
			if err != nil || ctx.Err() != nil {
				return sum, false, err
			}
			complete, err := cr.Finish(sum)
			return sum, complete, err
		},
	}, nil
}

// markDurable best-effort updates the tenant's job row; the in-memory
// state already reflects the outcome.
func (s *Server) markDurable(name, tenant, state string) {
	_, db, release, err := s.tenants.Acquire(tenant)
	if err != nil {
		return
	}
	defer release()
	_ = setJobRowState(db, name, state)
}
