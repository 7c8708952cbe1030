package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"goofi/internal/campaign"
	"goofi/internal/faultmodel"
	"goofi/internal/scanchain"
	"goofi/internal/telemetry"
	"goofi/internal/trigger"
)

// Summary aggregates a campaign's raw outcomes. (Dependability measures —
// effective/latent/overwritten classification — come from the analysis
// phase, which compares logged states against the reference run.)
type Summary struct {
	Campaign    string
	Experiments int
	Injected    int
	// Skipped counts injections rejected by the pre-injection filter
	// before an experiment was spent on them.
	Skipped     int
	ByStatus    map[campaign.OutcomeStatus]int
	ByMechanism map[string]int
	// Forwarded counts experiments that restored a checkpoint instead of
	// re-emulating the fault-free prefix.
	Forwarded int
	// CyclesEmulated is the total cycles actually emulated across the
	// reference run and all experiments; CyclesSaved is the total cycles
	// skipped by checkpoint restores, CyclesConverged the total skipped by
	// ending converged runs early, CyclesSteady the total skipped by
	// moving runs in a steady state to their last iteration. Cold
	// execution of the same plan emulates CyclesEmulated + CyclesSaved +
	// CyclesConverged + CyclesSteady.
	CyclesEmulated  uint64
	CyclesSaved     uint64
	CyclesConverged uint64
	CyclesSteady    uint64
	// Converged counts experiments that re-joined the reference run and
	// were ended there (Experiment.Converged).
	Converged int
	// Steady counts the runs, the reference run among them, that skipped
	// a steady state to their last iteration (Experiment.SteadyCycles).
	Steady int
	// Pruned counts the experiments — included in Experiments, Injected
	// and ByStatus like any other — whose rows were synthesized from the
	// reference run's def-use table instead of being emulated (prune.go).
	// Conservation reads planned = accepted + invalid, pruned ⊆ accepted.
	Pruned PrunedCounts
	// Retried counts failed experiment attempts that were re-executed
	// under the retry policy; InvalidRuns counts experiments that
	// exhausted their attempts and were recorded as OutcomeInvalidRun;
	// QuarantinedBoards counts boards the circuit breaker removed.
	Retried           int
	InvalidRuns       int
	QuarantinedBoards int
	// PlanHash fingerprints the campaign's full injection plan (seq →
	// fault + trigger) before execution; Deterministic reports the
	// target's declared capability (TargetDeterministic). For
	// non-deterministic targets the plan hash is the replayable
	// artifact: same seed → same hash, even though per-run outcomes are
	// statistical.
	PlanHash      string
	Deterministic bool
}

// Runner executes fault injection campaigns: a reference run followed by
// NumExperiments fault injection experiments, with logging through a
// ResultSink and pause/resume/stop control (paper Fig 7). Run is the only
// execution entry point; the board count is a parameter (WithBoards), not
// a separate method.
type Runner struct {
	target TargetSystem
	alg    Algorithm
	camp   *campaign.Campaign
	tsd    *campaign.TargetSystemData
	// targetTaken: a Run's reference has taken target. Later Runs build
	// theirs from the factory, as the boards do.
	targetTaken bool

	sink    ResultSink
	filter  func(f faultmodel.Fault, trig trigger.Spec) bool
	boards  int
	factory func() TargetSystem

	// Durable checkpointing (WithCheckpoints/WithResume). onPause is set
	// by Run for the duration of the dispatch loop so the pause
	// checkpoint can persist the campaign cursor.
	ckptEvery int
	resume    *campaign.Checkpoint
	onPause   func()

	// fw tunes checkpoint fast-forwarding (WithForwarding); the zero
	// value enables it with defaults.
	fw ForwardConfig

	// shardLo/shardHi restrict dispatch to a sequence range
	// (WithShardRange); shardHi == 0 means the full plan.
	shardLo, shardHi int

	// recordedFw is the set the last Run's reference run recorded,
	// exposed through ForwardSet().
	recordedFw *ForwardSet

	// retry is the fault-tolerance policy (WithRetryPolicy); the zero
	// value keeps the legacy abort-on-first-error behaviour.
	retry RetryPolicy

	// extFleet is a shared board fleet (WithFleet). When nil, Run builds
	// a private fleet over the runner's own board count, which preserves
	// the legacy single-campaign ownership model exactly.
	extFleet *Fleet

	// tracer and progress are the allocating half of the telemetry layer
	// (WithTelemetry); both are nil-safe and nil by default. The atomic
	// counters in metrics.go are always on regardless.
	tracer   *telemetry.Tracer
	progress *telemetry.Progress

	mu      sync.Mutex
	cond    *sync.Cond
	paused  bool
	stopped bool
	// stopNotify is closed by Stop while Run is dispatching, so workers
	// blocked in a fleet Acquire (not just in the pause Wait) observe
	// the stop promptly.
	stopNotify chan struct{}
}

// RunnerOption configures a Runner.
type RunnerOption func(*Runner)

// WithSink enables logging of every experiment through a ResultSink —
// typically *campaign.Store for synchronous writes or
// *campaign.BatchingSink for batched asynchronous ones.
func WithSink(s ResultSink) RunnerOption {
	return func(r *Runner) { r.sink = s }
}

// WithBoards sets how many simulated boards execute the campaign's plan
// concurrently. factory creates the target system each board drives; it is
// required above one board and, when non-nil, also supplies the reference
// run's target. The default is one board driving the runner's own target.
func WithBoards(boards int, factory func() TargetSystem) RunnerOption {
	return func(r *Runner) {
		r.boards = boards
		r.factory = factory
	}
}

// DefaultCheckpointInterval is how many completed experiments pass
// between durable campaign checkpoints unless configured otherwise.
const DefaultCheckpointInterval = 16

// WithCheckpoints enables durable campaign checkpoints: after the
// reference run, every `every` completed experiments (<= 0 selects
// DefaultCheckpointInterval), on pause, and at termination, the runner
// hands the campaign cursor — its identity: plan hash, seed, experiment
// count — to the sink's SaveCheckpoint, whose durability barrier it
// raises; on pause and at termination it then flushes the sink, which is
// when that cursor is certainly durable. Run fails if the configured sink
// is not a CheckpointSink. Which experiments are complete is never in the
// cursor: a resume reads it from the durable rows, so a process killed in
// between loses only the rows that had not reached the store's
// write-ahead log.
func WithCheckpoints(every int) RunnerOption {
	if every <= 0 {
		every = DefaultCheckpointInterval
	}
	return func(r *Runner) { r.ckptEvery = every }
}

// WithResume continues a campaign from a recovered cursor (typically
// campaign.Store.RecoverCursor): the experiments in its Ranges are skipped
// and the plan hash is validated, so a changed campaign definition cannot silently
// resume onto stale results. The reference run runs as in any run, and
// records the forward set the experiments use; when the cursor says it is
// already logged it logs nothing, and on a deterministic target it must
// reproduce the logged row (ErrReferenceChanged), which the stored rows
// are relative to.
func WithResume(cp *campaign.Checkpoint) RunnerOption {
	return func(r *Runner) { r.resume = cp }
}

// WithForwarding configures checkpoint fast-forwarding. Forwarding is on
// by default (for targets implementing Forwarder and campaigns whose
// trigger is cycle-monotonic); pass ForwardConfig{Disabled: true} to run
// every experiment cold.
func WithForwarding(cfg ForwardConfig) RunnerOption {
	return func(r *Runner) { r.fw = cfg }
}

// WithFleet runs the campaign against a shared board Fleet instead of a
// private one: board leases are acquired per experiment under the
// fleet's fair-share policy, so several concurrently running campaigns
// divide one board pool. The runner's board count (WithBoards) caps
// this campaign's parallelism; a target factory is required because a
// worker builds a fresh target each time it is granted a lease.
// Experiment outcomes are byte-identical to a private-fleet run — the
// plan is drawn before dispatch and every experiment is re-initialised
// from its per-sequence seed on whichever board runs it.
func WithFleet(f *Fleet) RunnerOption {
	return func(r *Runner) { r.extFleet = f }
}

// WithShardRange restricts dispatch to the plan's sequence numbers in
// [lo, hi). Planning still draws the complete plan from the campaign
// seed — the range only filters which experiments this runner executes —
// so every per-experiment seed, and therefore every record, is identical
// to the same sequence run as part of a full single-process campaign.
// This is the execution primitive of distributed sharding: each shard
// worker runs one range of the shared plan.
func WithShardRange(lo, hi int) RunnerOption {
	return func(r *Runner) {
		r.shardLo = lo
		r.shardHi = hi
	}
}

// WithInjectionFilter installs a pre-injection filter (paper §4): drawn
// injections the filter rejects are skipped and redrawn, so every spent
// experiment targets live state. The number of skips is reported in
// Summary.Skipped. The fault's Bits are the plan's own, redrawn in place
// after a rejection: the filter reads them and keeps nothing.
func WithInjectionFilter(fn func(f faultmodel.Fault, trig trigger.Spec) bool) RunnerOption {
	return func(r *Runner) { r.filter = fn }
}

// NewRunner builds a runner for one campaign against one target system.
func NewRunner(ts TargetSystem, alg Algorithm, camp *campaign.Campaign,
	tsd *campaign.TargetSystemData, opts ...RunnerOption) (*Runner, error) {
	if err := camp.Validate(); err != nil {
		return nil, err
	}
	if err := tsd.Validate(); err != nil {
		return nil, err
	}
	if camp.TargetName != tsd.Name {
		return nil, fmt.Errorf("core: campaign %q targets %q, got target system %q",
			camp.Name, camp.TargetName, tsd.Name)
	}
	r := &Runner{target: ts, alg: alg, camp: camp, tsd: tsd, boards: 1}
	r.cond = sync.NewCond(&r.mu)
	for _, o := range opts {
		o(r)
	}
	return r, nil
}

// Pause suspends the campaign between experiments.
func (r *Runner) Pause() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.paused = true
}

// Resume continues a paused campaign (the "restart" control of Fig 7).
func (r *Runner) Resume() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.paused = false
	r.cond.Broadcast()
}

// Stop ends the campaign after the current experiment.
func (r *Runner) Stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped = true
	r.paused = false
	if r.stopNotify != nil {
		close(r.stopNotify)
		r.stopNotify = nil
	}
	r.cond.Broadcast()
}

// ForwardSet returns the checkpoint forward set the last Run's reference
// run recorded — checkpoints, def-use table, join points. Valid after Run
// returns; nil when the target does not forward or recording was off.
func (r *Runner) ForwardSet() *ForwardSet { return r.recordedFw }

// checkpoint blocks while paused; it reports false when the campaign
// should stop (Stop called or context cancelled). On pause the cursor is
// saved and the sink flushed behind it — a checkpointed campaign is
// durable — before the progress phase reads "paused", outside the lock so
// a Resume or Stop need not wait for the flush. The phase holds until the
// run goes on, which sets "experiment" again. The pause is read and
// waited out under one hold of the lock: a Pause from another goroutine
// that lands in between is announced, never waited out unannounced.
func (r *Runner) checkpoint(ctx context.Context) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	announced := false
	for r.paused && !r.stopped && ctx.Err() == nil {
		if announced {
			r.cond.Wait()
			continue
		}
		announced = true
		r.mu.Unlock()
		if r.onPause != nil {
			r.onPause() // save the campaign cursor (durable checkpointing)
		}
		// A flush error will poison an asynchronous sink and resurface
		// from the termination flush; pausing itself need not fail.
		_ = r.flushSink()
		r.progress.SetPhase("paused")
		r.mu.Lock()
	}
	goOn := !r.stopped && ctx.Err() == nil
	if announced && goOn {
		r.progress.SetPhase("experiment")
	}
	return goOn
}

// flushSink drains the sink when one is configured.
func (r *Runner) flushSink() error {
	if r.sink == nil {
		return nil
	}
	return r.sink.Flush()
}

// chainMap returns the target's scan chain map the campaign injects into.
func (r *Runner) chainMap() (*scanchain.Map, error) {
	if r.camp.ChainName == "" {
		if len(r.tsd.Chains) != 1 {
			return nil, fmt.Errorf("core: campaign %q does not name a chain and target has %d",
				r.camp.Name, len(r.tsd.Chains))
		}
		return &r.tsd.Chains[0], nil
	}
	return r.tsd.Chain(r.camp.ChainName)
}

// space resolves the campaign's selected locations against the target's
// scan chain map.
func (r *Runner) space() (*faultmodel.Space, *scanchain.Map, error) {
	m, err := r.chainMap()
	if err != nil {
		return nil, nil, err
	}
	locs := m.Select(r.camp.Locations...)
	if len(locs) == 0 {
		return nil, nil, fmt.Errorf("core: campaign %q selects no locations in chain %q",
			r.camp.Name, m.Chain)
	}
	// Injection never targets read-only cells; drop them from the space
	// (they remain observable).
	writable := make([]scanchain.Location, 0, len(locs))
	for _, l := range locs {
		if !l.ReadOnly {
			writable = append(writable, l)
		}
	}
	sp, err := faultmodel.NewSpace(writable)
	if err != nil {
		return nil, nil, err
	}
	return sp, m, nil
}

// expSeed derives a per-experiment seed so that any experiment can be
// replayed in isolation (paper §2.3 re-runs).
func expSeed(campaignSeed int64, seq int) int64 {
	const mix = int64(-0x61C8_8646_80B5_83EB) // golden-ratio constant as int64
	return campaignSeed ^ (int64(seq+2) * mix)
}

// lazySource is the math/rand source of seed, seeded at the first draw: only
// intermittent faults draw from an experiment's RNG, and seeding (607 words)
// costs more than a pruned experiment's whole row. A reused experiment
// context reseeds the source it has.
type lazySource struct {
	seed   int64
	src    rand.Source64
	seeded bool // src holds seed's stream
}

func (s *lazySource) stream() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	} else if !s.seeded {
		s.src.Seed(s.seed)
	}
	s.seeded = true
	return s.src
}

func (s *lazySource) Int63() int64    { return s.stream().Int63() }
func (s *lazySource) Uint64() uint64  { return s.stream().Uint64() }
func (s *lazySource) Seed(seed int64) { s.seed, s.seeded = seed, false }

// newExperiment builds the experiment context for sequence number seq.
func (r *Runner) newExperiment(seq int, fault *faultmodel.Fault, trig trigger.Spec) *Experiment {
	name := campaign.ExperimentName(r.camp.Name, seq)
	if seq < 0 {
		name = campaign.ReferenceName(r.camp.Name)
	}
	ex := &Experiment{}
	r.initExperiment(ex, seq, name, fault, trig)
	return ex
}

// initExperiment readies ex, a fresh context or a finished experiment's, for
// experiment seq: a fault is copied in, and of what ex held before it
// keeps storage alone — its scan vector, its step trace's array, its
// scratch map emptied and its random source, reseeded — so a board that is
// handed its finished contexts back allocates none.
func (r *Runner) initExperiment(ex *Experiment, seq int, name string, fault *faultmodel.Fault, trig trigger.Spec) {
	old := *ex
	*ex = Experiment{Campaign: r.camp, Seq: seq, Name: name, Trigger: trig,
		ScanVector: old.ScanVector, StepTrace: old.StepTrace[:0], scratch: old.scratch,
		RNG: old.RNG, src: old.src}
	clear(ex.scratch)
	if fault != nil {
		ex.fault = *fault
		ex.Fault = &ex.fault
	}
	if ex.RNG == nil {
		ex.RNG = rand.New(&ex.src)
	}
	ex.RNG.Seed(expSeed(r.camp.Seed, seq))
	if r.camp.LogMode == campaign.LogDetail && r.sink != nil {
		parent := name
		ex.DetailSink = func(step int, sv *campaign.StateVector) error {
			return r.sink.LogExperiment(detailRecord(r.camp.Name, parent, step, sv))
		}
	}
}

// detailRecord builds one detail-mode trace row.
func detailRecord(campaignName, parent string, step int, sv *campaign.StateVector) *campaign.ExperimentRecord {
	return &campaign.ExperimentRecord{
		Name:     fmt.Sprintf("%s/step%06d", parent, step),
		Parent:   parent,
		Campaign: campaignName,
		Step:     step,
		State:    *sv,
	}
}

// runOne executes one experiment on the given board target and logs it.
func (r *Runner) runOne(target TargetSystem, ex *Experiment, parent string) error {
	if err := r.alg.Run(target, ex); err != nil {
		return fmt.Errorf("core: campaign %q %s: %w", r.camp.Name, ex.Name, err)
	}
	return r.logResult(ex, parent, nil)
}

// logResult writes an experiment's end-of-run record to the sink. ref is
// the reference state the row may be stored relative to; it travels with
// the record, so every sink — and whatever wraps one — encodes the same
// bytes from it. nil stores the whole state.
func (r *Runner) logResult(ex *Experiment, parent string, ref *campaign.Reference) error {
	if r.sink == nil {
		return nil
	}
	rec, err := ex.Record()
	if err != nil {
		return err
	}
	rec.Parent, rec.Ref = parent, ref
	return r.sink.LogExperiment(rec)
}

// sinkLog writes a prebuilt record when a sink is configured.
func (r *Runner) sinkLog(rec *campaign.ExperimentRecord) error {
	if r.sink == nil {
		return nil
	}
	return r.sink.LogExperiment(rec)
}

// Rerun repeats a logged experiment with the same fault and trigger,
// logging the new run with parentExperiment set to the original (paper
// §2.3: investigating an interesting experiment E1 by re-running it as E2
// with the same campaign data, typically in detail mode). detail forces
// detail-mode logging regardless of the campaign's log mode.
func (r *Runner) Rerun(expName string, detail bool) (*Experiment, error) {
	if r.sink == nil {
		return nil, fmt.Errorf("core: rerun needs a result sink")
	}
	orig, err := r.sink.GetExperiment(expName)
	if err != nil {
		return nil, err
	}
	if orig.Campaign != r.camp.Name {
		return nil, fmt.Errorf("core: experiment %q belongs to campaign %q, runner drives %q",
			expName, orig.Campaign, r.camp.Name)
	}
	seq := orig.Data.Seq
	fault := orig.Data.Fault
	ex := r.newExperiment(seq, &fault, orig.Data.Trigger)
	// Find a free rerun name.
	base := expName + "/rerun"
	name := ""
	for n := 1; ; n++ {
		candidate := fmt.Sprintf("%s%d", base, n)
		if _, err := r.sink.GetExperiment(candidate); err != nil {
			name = candidate
			break
		}
	}
	ex.Name = name
	if detail {
		parent := name
		ex.DetailSink = func(step int, sv *campaign.StateVector) error {
			return r.sink.LogExperiment(detailRecord(r.camp.Name, parent, step, sv))
		}
	}
	if err := r.runOne(r.boardTarget(), ex, expName); err != nil {
		return nil, err
	}
	if err := r.flushSink(); err != nil {
		return nil, err
	}
	return ex, nil
}
