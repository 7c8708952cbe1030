package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"goofi/internal/bitvec"
	"goofi/internal/campaign"
	"goofi/internal/faultmodel"
	"goofi/internal/telemetry"
)

// boardTarget returns the target system a board should drive: a fresh one
// from the factory when configured (required above one board), otherwise
// the runner's own target.
func (r *Runner) boardTarget() TargetSystem {
	if r.factory != nil {
		return r.factory()
	}
	return r.target
}

// retire closes a board's target if it is an io.Closer: a target that
// holds host resources between experiments — a proc board's zygote and
// the thread tracing it — gives them back when its board retires, is
// power-cycled or is quarantined. A wedged attempt may still be driving
// a power-cycled target, so Close must not wait on it without bound.
// Closing is not an experiment's failure, so its error goes nowhere.
func retire(target TargetSystem) {
	if c, ok := target.(io.Closer); ok {
		_ = c.Close()
	}
}

// installForwardSet hands the reference run's checkpoint set to a board
// target that supports forwarding.
func installForwardSet(target TargetSystem, set *ForwardSet) {
	if set == nil {
		return
	}
	if fwTarget, ok := target.(Forwarder); ok {
		fwTarget.SetForwardSet(set)
	}
}

// run is the state of one Runner.Run call. The stages fill it in order —
// plan, resumeFilter, reference, enqueue, dispatch, finalize — and the
// board workers share it during dispatch.
type run struct {
	r      *Runner
	ctx    context.Context
	fleet  *Fleet
	handle *FleetHandle
	// stopCh mirrors Stop into a channel for the duration of this run, so
	// the hand-over stage waiting for a board's delivery is woken by Stop.
	stopCh chan struct{}

	planned *planTable
	hash    string
	// ckpt is the sink's cursor side, nil when checkpointing is off.
	ckpt CheckpointSink
	sum  *Summary
	// durable is the resume cursor's completed set: experiments whose rows
	// an earlier (interrupted) run stored. They are skipped at dispatch, so
	// a resumed campaign replays exactly the missing remainder of the same
	// plan. Read-only after resumeFilter.
	durable campaign.SeqRanges
	resumed int
	// haveRef reports that the reference stage succeeded: only then does a
	// termination cursor go to the sink.
	haveRef bool
	// cursorWritten reports that this run has handed its cursor to the
	// sink: every later save is the barrier alone. It is the run's, not
	// the sink's, so the next run of the campaign writes the cursor a
	// finished run's teardown deleted. Only the goroutine running Run
	// saves.
	cursorWritten bool
	// ref is the reference run's state, which the experiments' rows are
	// stored relative to; nil — a nondeterministic target, whose reference
	// another process need not reproduce byte for byte, or no sink — stores
	// them whole. Read-only once dispatch starts.
	ref *campaign.Reference
	// fwSet is what the reference run recorded; prune answers from its
	// def-use table.
	fwSet *ForwardSet
	prune *pruner
	// refResult is the reference run's result, which every experiment is
	// handed (Experiment.Reference).
	refResult *Result
	// spare is the reference run's board, which the first worker to lease
	// a board takes instead of building one; Run retires it if none did.
	// Guarded by mu during dispatch.
	spare TargetSystem
	// items is what this run executes: the sequence numbers of the plan
	// minus what is durable and what belongs to other shards, in plan order
	// (int32, so that a planned experiment costs 20 bytes, not 24; plan
	// caps n). The hand-over stage owns window, a ring of slots
	// items[h : h+len(window)] map into, and receives what the boards
	// deliver on delivered.
	items     []int32
	window    []slot
	delivered chan delivery
	q         *expQueue
	// The hand-over stage names the items (slab.go), and logs the rows the
	// pruner and the boards built through recs.
	names itemNames
	recs  records
	// runCtx cancels workers parked in a fleet Acquire once the hand-over
	// stage is done with the run.
	runCtx context.Context

	mu        sync.Mutex // guards the fields below and sum during dispatch
	firstErr  error
	done      int
	sinceCkpt int
}

func (rs *run) fail(err error) {
	rs.mu.Lock()
	if rs.firstErr == nil {
		rs.firstErr = err
	}
	rs.mu.Unlock()
}

func (rs *run) failed() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.firstErr != nil
}

// expErr wraps an error with the campaign and the experiment it hit.
func (rs *run) expErr(name string, err error) error {
	return fmt.Errorf("core: campaign %q %s: %w", rs.r.camp.Name, name, err)
}

// saveCursor persists the campaign cursor — its identity; the rows are the
// record of what is complete — through the checkpoint sink, whose barrier
// it raises. The identity does not change during a run, so only the run's
// first save writes the cursor row; every later one raises the barrier
// alone, at the same place among the rows. Cursors are only saved once the
// reference run is logged. The save can wait for room in the sink's queue,
// so callers hold no lock.
func (rs *run) saveCursor() error {
	if rs.cursorWritten {
		return rs.ckpt.SaveCheckpoint(nil)
	}
	rs.cursorWritten = true
	return rs.ckpt.SaveCheckpoint(&campaign.Checkpoint{
		Campaign:    rs.r.camp.Name,
		PlanHash:    rs.hash,
		Seed:        rs.r.camp.Seed,
		Experiments: rs.r.camp.NumExperiments,
		Reference:   true,
	})
}

// Run executes the campaign: one planning pass, the reference run, then
// the experiment loop of paper Fig 2, dispatched over a pool of board
// workers by one hand-over stage that walks the plan in sequence order.
// Rows, cursor saves and progress counts leave in plan order, so what a
// campaign stores is the same bytes for every board count (each experiment
// is fully re-initialised on whichever board runs it); only wall-clock time
// changes.
//
// Pause/Resume/Stop act at the checkpoint before each row is handed over;
// the sink is flushed on pause and on termination. The run's phase and
// counts are the telemetry Progress (WithTelemetry), the one live view.
func (r *Runner) Run(ctx context.Context) (*Summary, error) {
	if r.boards < 1 {
		return nil, fmt.Errorf("core: board count %d < 1", r.boards)
	}
	if r.boards > 1 && r.factory == nil {
		return nil, fmt.Errorf("core: %d boards need a target factory (WithBoards)", r.boards)
	}
	if r.extFleet != nil && r.factory == nil {
		return nil, fmt.Errorf("core: a shared fleet needs a target factory (WithBoards)")
	}
	// Wake a paused campaign when the context is cancelled, so Wait in
	// checkpoint observes the cancellation.
	cancelWatch := context.AfterFunc(ctx, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer cancelWatch()

	rs := &run{r: r, ctx: ctx, stopCh: make(chan struct{})}
	r.mu.Lock()
	if r.stopped {
		close(rs.stopCh)
	} else {
		r.stopNotify = rs.stopCh
	}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.stopNotify = nil
		r.mu.Unlock()
	}()

	// Board ownership lives in a Fleet. A shared fleet (WithFleet) is
	// contended by other campaigns; the private fallback is this
	// campaign's own boards (a lease is always granted immediately and
	// never yielded).
	if rs.fleet = r.extFleet; rs.fleet == nil {
		var err error
		if rs.fleet, err = NewFleet(r.boards); err != nil {
			return nil, err
		}
	}
	rs.handle = rs.fleet.Register(r.camp.Name)
	defer rs.handle.Close()

	if err := rs.plan(); err != nil {
		return nil, err
	}
	if err := rs.resumeFilter(); err != nil {
		return nil, err
	}
	rs.reference()
	r.recordedFw = rs.fwSet
	if !rs.failed() {
		rs.enqueue()
		rs.dispatch()
	}
	retire(rs.takeSpare())
	return rs.finalize()
}

// plan is stage one: draw the whole injection plan, fingerprint it, and
// open the summary.
func (rs *run) plan() error {
	r := rs.r
	r.progress.Start(r.camp.Name, r.camp.NumExperiments)
	r.progress.SetPhase("plan")
	start := time.Now()
	planned, skipped, err := r.plan()
	if err != nil {
		return err
	}
	rs.planned = planned
	rs.hash = r.planHashOf(planned)
	r.tracer.Record(telemetry.SpanRecord{Phase: "plan", Board: -1, Seq: -1,
		WallNS: time.Since(start).Nanoseconds()})
	rs.sum = &Summary{
		Campaign:      r.camp.Name,
		Skipped:       skipped,
		PlanHash:      rs.hash,
		Deterministic: TargetDeterministic(r.target),
		ByStatus:      make(map[campaign.OutcomeStatus]int),
		ByMechanism:   make(map[string]int),
	}
	return nil
}

// resumeFilter is stage two: bind the checkpoint sink and take a resume
// cursor's (WithResume) completed set, refusing a cursor that belongs to
// a different plan.
func (rs *run) resumeFilter() error {
	r := rs.r
	if r.ckptEvery > 0 {
		cs, ok := r.sink.(CheckpointSink)
		if !ok {
			return fmt.Errorf("core: checkpoints need a sink with SaveCheckpoint, got %T", r.sink)
		}
		rs.ckpt = cs
	}
	if r.resume == nil {
		return nil
	}
	if r.resume.PlanHash != "" && r.resume.PlanHash != rs.hash {
		hint := ""
		if r.filter == nil {
			hint = " (a campaign started with a pre-injection filter must be resumed with it: the filter shapes the plan)"
		}
		return fmt.Errorf("core: campaign %q: plan hash mismatch (checkpoint %.12s…, current %.12s…): campaign definition changed since the checkpoint%s",
			r.camp.Name, r.resume.PlanHash, rs.hash, hint)
	}
	rs.durable = r.resume.Ranges
	rs.resumed = rs.durable.Len()
	r.progress.AddDone(rs.resumed)
	return nil
}

// reference is stage three, makeReferenceRun of paper Fig 2: the
// fault-free execution whose logged state anchors the analysis phase. It
// runs on one board before the pool fans out, in every run: where an
// earlier run of the campaign logged it (the resume cursor says so), it
// logs nothing and has to reproduce the logged row. When the target
// supports checkpoint forwarding the reference run doubles as the
// recording pass: the resulting ForwardSet, def-use table included, is
// handed to every board worker so faulty experiments can skip the
// fault-free prefix or the board altogether.
func (rs *run) reference() {
	r := rs.r
	logged := r.resume != nil && r.resume.Reference
	r.progress.SetPhase("reference")
	start := time.Now()
	// The reference occupies a board like any experiment, so on a shared
	// fleet it queues behind other campaigns' leases.
	var err error
	if lease, lerr := rs.handle.Acquire(rs.ctx); lerr != nil {
		err = fmt.Errorf("core: campaign %q reference: %w", r.camp.Name, lerr)
	} else {
		rs.fwSet, err = rs.referenceRun(logged)
		lease.Release()
	}
	r.tracer.Record(telemetry.SpanRecord{Phase: "reference", Board: -1, Seq: -1,
		EndCycle: rs.sum.CyclesEmulated, WallNS: time.Since(start).Nanoseconds()})
	if err != nil {
		rs.fail(err)
		return
	}
	rs.haveRef = true
	if rs.ckpt != nil && !logged {
		// First durable cursor: the reference is in, nothing else.
		if err := rs.saveCursor(); err != nil {
			rs.fail(err)
		}
	}
}

// referenceRun climbs the attempt ladder with the reference experiment,
// with the same watchdog/retry protection as the experiments when the
// policy is on, and returns the recorded forward set (nil when the target
// does not forward or recording was off). It logs the reference unless
// logged says an earlier run did; then it checks the reference against
// that row.
func (rs *run) referenceRun(logged bool) (set *ForwardSet, err error) {
	r := rs.r
	// The first Run's reference runs on the runner's own target, which
	// Assemble built to check the configuration. Its board goes on to the
	// first worker that leases one; a failed reference retires it.
	target := r.target
	if r.targetTaken || target == nil {
		target = r.boardTarget()
	}
	r.targetTaken = true
	b := &board{id: -1, target: target,
		jitter: rand.New(rand.NewSource(expSeed(r.camp.Seed, -2)))}
	defer func() {
		if err != nil {
			retire(b.target)
		} else {
			rs.spare = b.target
		}
	}()
	// The checkpoint plan is computed once, before the ladder: a retried
	// reference must record at the same cycles the first attempt would
	// have, so a retry stays observationally equivalent. Re-arming on
	// every attempt resets any partial recording from a failed one.
	if _, ok := b.target.(Forwarder); ok {
		if fwPlan := r.forwardPlan(); fwPlan != nil {
			b.arm = func(t TargetSystem) {
				if fw, ok := t.(Forwarder); ok {
					fw.ArmForwardRecording(fwPlan)
				}
			}
		}
	}
	attempts := 0
	d := rs.climb(b, -1, campaign.ReferenceName(r.camp.Name), &attempts)
	ref := d.ex
	if d.verdict != ladderDone {
		// Spent, or a wedged board with no factory to power-cycle a
		// replacement from: without a reference there is no campaign.
		return nil, rs.expErr(ref.Name, d.err)
	}
	// The reference run logs itself, whole: nothing is handed over before
	// it.
	if !logged {
		err := rs.flushDetail(&d)
		if err == nil {
			err = r.logResult(ref, "", nil)
		}
		if err != nil {
			return nil, rs.expErr(ref.Name, err)
		}
	}
	rs.refResult = &ref.Result
	rs.sum.CyclesEmulated += ref.Result.Outcome.Cycles - ref.SteadyCycles
	if ref.SteadyCycles > 0 {
		rs.sum.Steady++
		rs.sum.CyclesSteady += ref.SteadyCycles
	}
	if r.sink != nil && rs.sum.Deterministic {
		sv, err := ref.Result.StateVector()
		if err != nil {
			return nil, rs.expErr(ref.Name, err)
		}
		if logged {
			if err := rs.sameAsLogged(sv); err != nil {
				return nil, err
			}
		}
		rs.ref = campaign.NewReference(sv)
	}
	fwTarget, ok := b.target.(Forwarder)
	if !ok {
		return nil, nil
	}
	set = fwTarget.TakeForwardSet()
	if set != nil {
		set.Reference = &ref.Result
	}
	return set, nil
}

// sameAsLogged checks a resumed run's reference state against the row an
// earlier run logged, which the stored rows are relative to: the two must
// encode to the same bytes.
func (rs *run) sameAsLogged(sv *campaign.StateVector) error {
	name := rs.r.camp.Name
	rec, err := rs.r.sink.GetExperiment(campaign.ReferenceName(name))
	if err != nil {
		return fmt.Errorf("core: campaign %q: the logged reference run: %w", name, err)
	}
	mine, err := sv.Encode()
	if err != nil {
		return err
	}
	stored, err := rec.State.Encode()
	if err != nil {
		return err
	}
	if !bytes.Equal(mine, stored) {
		return fmt.Errorf("core: campaign %q: %w", name, ErrReferenceChanged)
	}
	return nil
}

// takeSpare hands out the reference run's board, once; nil after.
func (rs *run) takeSpare() TargetSystem {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	t := rs.spare
	rs.spare = nil
	return t
}

// enqueue is stage four: the plan minus what is already durable and what
// belongs to other shards becomes the run's items, and the pruner is armed
// from the reference run's def-use table.
func (rs *run) enqueue() {
	r := rs.r
	lo, hi := 0, rs.planned.n
	if r.shardHi != 0 {
		// Another shard's slice of the plan is not this run's.
		lo, hi = max(r.shardLo, 0), min(r.shardHi, hi)
	}
	todo := rs.durable.Holes(lo, hi)
	rs.items = make([]int32, 0, todo.Len())
	for _, gap := range todo {
		for seq := gap[0]; seq <= gap[1]; seq++ {
			rs.items = append(rs.items, int32(seq))
		}
	}
	rs.prune = r.newPruner(rs.fwSet, rs.ref)
	rs.recs = recordsFor(r.sink)
}

// dispatch is stage five: the hand-over stage walks the items while the
// board workers run what it gives them. Worker parallelism is this
// campaign's board budget, capped by what the fleet could ever grant.
func (rs *run) dispatch() {
	r := rs.r
	r.progress.SetPhase("experiment")
	// A pause is a checkpoint of its own: this hook saves the cursor, then
	// Runner.checkpoint flushes the sink, so killing a paused campaign is
	// always recoverable.
	if rs.ckpt != nil {
		r.onPause = func() { _ = rs.saveCursor() }
		defer func() { r.onPause = nil }()
	}
	rs.q = newExpQueue()
	rs.window = make([]slot, campaign.QueueRows)
	// A board delivers each item it is given once, and the stage gives out
	// no item a window ahead of the hand-over: a send never blocks, whether
	// or not the stage is still receiving.
	rs.delivered = make(chan delivery, len(rs.window))
	// runCtx wakes workers parked in a fleet Acquire once the stage is done.
	runCtx, cancelRun := context.WithCancel(rs.ctx)
	rs.runCtx = runCtx
	var wg sync.WaitGroup
	for w := min(r.boards, rs.fleet.Capacity()); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs.worker()
		}()
	}
	idle := make(chan struct{})
	go func() {
		wg.Wait()
		close(idle)
	}()
	rs.handOver(idle)
	cancelRun()
	rs.q.halt()
	<-idle

	// Rows left unhanded: every board was quarantined before the plan
	// finished (a user stop or a fatal error also leaves work behind, but
	// those report themselves).
	if n := len(rs.items) - rs.done; n > 0 && !rs.failed() && rs.ctx.Err() == nil {
		r.mu.Lock()
		stopped := r.stopped
		r.mu.Unlock()
		if !stopped {
			rs.fail(fmt.Errorf("core: campaign %q: %d experiments unexecuted: all boards quarantined",
				r.camp.Name, n))
		}
	}
}

// slot is one item between the classifier and the sink: the row the
// classifier synthesized for a pruned item, or what a board delivered for
// an emulated one.
type slot struct {
	delivery
	class PruneClass
	ready bool
}

// delivery is what a board hands back for one item: the experiment's name,
// its detail-trace flush, how its climb of the ladder ended — spent, with
// the invalid-run row — its row and statistics, and where and how long it
// ran.
type delivery struct {
	idx  int
	name string
	// ex is the last attempt's context. A board keeps it for the next
	// experiment once it has made the row and the statistics out of it
	// (finish): only the reference run and a climb that failed hand it over.
	ex      *Experiment
	flush   func() error
	verdict ladderVerdict
	err     error
	// rec is the row handed over as it stands: a pruned item's, an
	// emulated run's (none without a sink) or an invalid run's.
	rec    *campaign.ExperimentRecord
	stats  runStats
	board  int
	wallNS int64
}

// runStats is what resolve reads off an experiment a board ran, or the
// classifier pruned: its outcome, and the runtime statistics its row does
// not hold. resolve reads no record, which is the sink's once logged.
type runStats struct {
	seq                                      int
	outcome                                  campaign.Outcome
	injected, forwarded, converged           bool
	forwardedFrom, convergedAt, steadyCycles uint64
}

// handOver is the hand-over stage: the one goroutine between the plan and
// the sink. It walks the items in plan order with two cursors. The
// classifier runs at most a window ahead: it synthesizes the rows the
// pruner can prove and pushes every other item to the boards. Behind it,
// each slot is handed over once it and every slot before it are settled:
// its rows to the sink, then resolve with its progress count and cursor
// save. So rows, cursors and spans leave in plan order for any board
// count, and the boards only emulate.
func (rs *run) handOver(idle <-chan struct{}) {
	next := 0
	for h := range rs.items {
		if !rs.r.checkpoint(rs.ctx) || rs.failed() {
			return
		}
		for ; next < len(rs.items) && next < h+len(rs.window); next++ {
			rs.classify(next)
		}
		s := &rs.window[h%len(rs.window)]
		if !rs.await(s, idle) || !rs.settle(s) {
			return
		}
	}
}

// classify fills item idx's slot with its synthesized row when the pruner
// proves it a no-op, and otherwise clears the slot for a board's delivery
// and queues the item.
func (rs *run) classify(idx int) {
	s := &rs.window[idx%len(rs.window)]
	pe := rs.planned.at(int(rs.items[idx]))
	pe.name = rs.names.at(rs.r.camp.Name, rs.items, idx)
	if rec, class := rs.prune.try(&pe); class != NotPruned {
		*s = slot{delivery: delivery{rec: rec, board: -1,
			stats: runStats{seq: pe.seq, outcome: rec.Data.Outcome, injected: true}}, class: class, ready: true}
		return
	}
	*s = slot{}
	rs.q.push(queuedExperiment{idx: idx, name: pe.name})
}

// await receives deliveries until s is ready. False when it will not be:
// the campaign was stopped or cancelled, or every worker retired — the
// fleet has no healthy board left — with s unrun.
func (rs *run) await(s *slot, idle <-chan struct{}) bool {
	for !s.ready {
		select {
		case d := <-rs.delivered:
			rs.window[d.idx%len(rs.window)] = slot{delivery: d, ready: true}
		case <-idle:
			// No worker is left to send: what they delivered is buffered.
			for len(rs.delivered) > 0 {
				d := <-rs.delivered
				rs.window[d.idx%len(rs.window)] = slot{delivery: d, ready: true}
			}
			return s.ready
		case <-rs.stopCh:
			return false
		case <-rs.ctx.Done():
			return false
		}
	}
	return true
}

// settle hands a ready slot's rows to the sink and resolves it. A fatal
// verdict or a failed sink write fails the run instead: false.
func (rs *run) settle(s *slot) bool {
	var (
		name string
		err  error
	)
	switch {
	case s.verdict == ladderFatal:
		name, err = s.name, s.err
	case s.class != NotPruned:
		// The record is the sink's once logged: nothing reads it after.
		start := time.Now()
		name = s.rec.Name
		err = rs.logRow(s.rec)
		s.wallNS = time.Since(start).Nanoseconds()
	case s.verdict == ladderSpent:
		name, err = s.rec.Name, rs.r.sinkLog(s.rec)
	default:
		name, err = s.name, rs.logEmulated(&s.delivery)
	}
	if err != nil {
		rs.fail(rs.expErr(name, err))
		return false
	}
	rs.resolve(s)
	return true
}

// flushDetail hands a run's buffered detail-mode trace to the sink.
func (rs *run) flushDetail(d *delivery) error {
	if d.flush == nil {
		return nil
	}
	return d.flush()
}

// logEmulated hands an emulated experiment's rows to the sink: its
// detail-mode trace, then its end row.
func (rs *run) logEmulated(d *delivery) error {
	if err := rs.flushDetail(d); err != nil {
		return err
	}
	return rs.logRow(d.rec)
}

// logRow hands a row the pruner or a board built to the run's sink, if it
// has one.
func (rs *run) logRow(rec *campaign.ExperimentRecord) error {
	if rs.r.sink == nil {
		return nil
	}
	return rs.recs.log(rs.r.sink, rec)
}

// boardRows is where a board takes its rows' records from and carves
// their scan states from (slab.go).
type boardRows struct {
	recs  records
	diffs Slab[int]
	scans Slab[byte]
}

// finish turns the experiment a board ran into what the hand-over stage
// needs of it — the statistics resolve reads, and its row when the run has
// a sink — so that the board can run the next experiment in the same
// context.
func (rs *run) finish(b *board, d *delivery) {
	ex := d.ex
	d.stats = runStats{seq: ex.Seq, outcome: ex.Result.Outcome, injected: ex.Injected,
		forwarded: ex.Forwarded, converged: ex.Converged,
		forwardedFrom: ex.ForwardedFrom, convergedAt: ex.ConvergedAt, steadyCycles: ex.SteadyCycles}
	if rs.r.sink != nil {
		d.rec = rs.endRecord(&b.rows, ex)
	}
	d.ex = nil
}

// endRecord builds an emulated experiment's end row, stored relative to
// the reference run's state where there is one. The record comes from the
// board's records; the run's memory and outputs are the target's — the
// reference's own where the target shared them — and its scan state the
// smaller of two forms: the positions, in the stored form, where it differs
// from the reference's (ScanFromRef), or its byte form, each carved from a
// slab of the board's. The first needs the reference's scan length.
func (rs *run) endRecord(rows *boardRows, ex *Experiment) *campaign.ExperimentRecord {
	rec := rows.recs.next()
	ex.fillRecord(rec)
	rec.State.Memory, rec.State.Outputs, rec.Ref = ex.Result.Memory, ex.Result.Outputs, rs.ref
	final := ex.Result.FinalScan
	if final == nil {
		return rec
	}
	size := final.MarshaledLen()
	if base := rs.refResult; rs.ref != nil && base.FinalScan != nil && base.FinalScan.Len() == final.Len() {
		if n := final.DiffCount(base.FinalScan); 8*n < size {
			var diff []int
			if n > 0 {
				diff = final.AppendDiff(rows.diffs.Take(n)[:0], base.FinalScan, bitvec.MarshaledHeaderBits)
			}
			rec.ScanFromRef(diff)
			return rec
		}
	}
	rec.State.Scan = final.AppendBinary(rows.scans.Take(size)[:0])
	return rec
}

// finalize is the last stage: termination cursor, termination flush,
// final phase.
func (rs *run) finalize() (*Summary, error) {
	r := rs.r
	// Termination cursor: a stop (or error) leaves a resumable checkpoint
	// behind; on full completion it records the finished state until the
	// caller clears it.
	if rs.ckpt != nil && rs.haveRef {
		if err := rs.saveCursor(); err != nil {
			rs.fail(err)
		}
	}
	// Termination flush, after the cursor so that it covers it: whatever
	// the boards logged must be durable before the campaign reports its
	// outcome — even (especially) on error, so a failed campaign keeps
	// every completed result.
	if err := r.flushSink(); err != nil {
		rs.fail(err)
	}
	if rs.firstErr != nil {
		// The partial summary still describes everything that completed
		// and was flushed above.
		r.progress.SetPhase(telemetry.PhaseFailed)
		return rs.sum, rs.firstErr
	}
	total := rs.resumed + rs.sum.Experiments
	phase := telemetry.PhaseDone
	if rs.ctx.Err() != nil || total < r.camp.NumExperiments {
		phase = telemetry.PhaseStopped
	}
	r.progress.SetPhase(phase)
	return rs.sum, rs.ctx.Err()
}

// board is what a worker drives while it holds a lease, and what the
// attempt ladder climbs on: the target plus the retry state that belongs
// to the board rather than to the experiment. The reference run builds a
// lease-less one.
type board struct {
	lease  *Lease
	id     int
	target TargetSystem
	// jitter is the board's seeded backoff stream: it keeps retry timing
	// deterministic in tests without coupling it to the experiment RNG
	// streams.
	jitter *rand.Rand
	// fails counts consecutive harness failures; at breaker (0 = never)
	// the board is suspect.
	fails, breaker int
	// fw is installed on every fresh target the ladder power-cycles to;
	// arm, when set, runs on the target before every attempt (the
	// reference run arms checkpoint recording with it).
	fw  *ForwardSet
	arm func(TargetSystem)
	// busyNS is the board's busy-time child, resolved once per lease so
	// the hot loop never touches the family's mutex.
	busyNS *telemetry.Counter
	// ex is the context the board runs its experiments in, and rows what
	// it makes their rows from; a worker's board keeps both from lease to
	// lease.
	ex   *Experiment
	rows boardRows
}

// ladderVerdict is how a climb of the attempt ladder ended.
type ladderVerdict int

const (
	// ladderDone: an attempt succeeded.
	ladderDone ladderVerdict = iota
	// ladderSpent: the retry budget is exhausted; the error is the last
	// attempt's.
	ladderSpent
	// ladderSuspect: the board cannot be trusted with another attempt —
	// the circuit breaker tripped, or it wedged with no factory to build
	// a replacement from. The experiment is to be given back.
	ladderSuspect
	// ladderFatal: the error ends the campaign — no retry policy, or a
	// cancelled context.
	ladderFatal
)

// climb is the one attempt ladder, shared by the reference run and the
// experiments: execute, and on a harness failure classify, count, back
// off, power-cycle and try again until the policy says stop. Each attempt
// rebuilds the experiment from its per-sequence seed, so a retried run is
// bit-identical to a first-try run, and buffers its detail-mode trace, so a
// failed attempt's partial trace is dropped with it. It returns the last
// attempt's experiment, the flush of its trace and the verdict — unless
// done, with the attempt's unwrapped error. Nothing reaches the sink here.
// seq is the experiment's sequence number, -1 for the reference run, and
// name its name; *attempts counts the attempts, across a requeue too. An
// attempt runs in the board's context (board.ex); one that failed keeps it,
// for it may still be running there, and the next gets a new one.
func (rs *run) climb(b *board, seq int, name string, attempts *int) delivery {
	r := rs.r
	policyOn := r.retry.enabled()
	// The reference injects nothing, at no trigger.
	var pe plannedExperiment
	var fault *faultmodel.Fault
	if seq >= 0 {
		pe = rs.planned.at(seq)
		fault = &pe.fault
	}
	for {
		*attempts++
		if b.ex == nil {
			b.ex = &Experiment{}
		}
		ex := b.ex
		r.initExperiment(ex, seq, name, fault, pe.trig)
		if seq >= 0 {
			ex.Reference = rs.refResult
		}
		flush := r.bufferDetail(ex)
		if b.arm != nil {
			b.arm(b.target)
		}
		err := r.execAttempt(rs.ctx, b.target, ex, *attempts)
		if err == nil {
			b.fails = 0
			return delivery{name: name, ex: ex, flush: flush}
		}
		b.ex = nil
		// Harness failure. Without a retry policy the first error ends
		// dispatch — through the common drain/flush path, not an early
		// return.
		if !policyOn || rs.ctx.Err() != nil {
			return delivery{name: name, ex: ex, verdict: ladderFatal, err: err}
		}
		b.fails++
		if *attempts >= r.retry.maxAttempts() {
			return delivery{name: name, ex: ex, verdict: ladderSpent, err: err}
		}
		class := ClassifyError(err)
		rs.mu.Lock()
		rs.sum.Retried++
		rs.mu.Unlock()
		retryCounter(class).Inc()
		r.progress.Retried()
		if b.breaker > 0 && b.fails >= b.breaker {
			// Circuit breaker: the failures are attributed to the board,
			// so the experiment gets its retry budget back.
			*attempts = 0
			return delivery{name: name, ex: ex, verdict: ladderSuspect, err: err}
		}
		if class == Wedged && r.factory == nil {
			// The wedged attempt may still be driving this target, and
			// there is no factory to power-cycle a replacement from.
			return delivery{name: name, ex: ex, verdict: ladderSuspect, err: err}
		}
		if class != Persistent {
			d := r.retry.backoff(*attempts+1, b.jitter)
			mBackoffNS.Add(uint64(d))
			if !sleepCtx(rs.ctx, d) {
				return delivery{name: name, ex: ex, verdict: ladderFatal, err: err}
			}
		}
		if class != Transient && r.factory != nil {
			// Power cycle: a fresh target from the factory is the
			// simulated equivalent of cycling the board's power before
			// the retry (every algorithm re-runs InitTestCard regardless).
			retire(b.target)
			b.target = r.factory()
			installForwardSet(b.target, b.fw)
		}
	}
}

// resolve folds one handed-over slot into the run: summary, always-on
// counters, progress, span and — when one is due — the durable cursor. A
// slot resolves in one of three ways: its row was emulated on a board,
// synthesized by the classifier (board -1, the reference's outcome), or
// recorded as an invalid run after the ladder was spent. It reads what it
// needs off the slot's statistics, never off the row.
func (rs *run) resolve(s *slot) {
	r, sum := rs.r, rs.sum
	valid := s.verdict == ladderDone
	span := telemetry.SpanRecord{Phase: "invalid", Board: s.board, WallNS: s.wallNS}
	var (
		out                        *campaign.Outcome
		injected                   bool
		forwarded, converged       bool
		emulated, saved, convSaved uint64
		steady                     uint64
	)
	switch {
	case !valid:
		span.Seq = s.stats.seq
	case s.class != NotPruned:
		span.Seq, out, injected = s.stats.seq, &s.stats.outcome, true
		span.Phase = "pruned"
	default:
		st := &s.stats
		span.Seq, out, injected = st.seq, &st.outcome, st.injected
		span.Phase = "experiment"
		span.StartCycle, span.EndCycle = st.forwardedFrom, out.Cycles
		if converged = st.converged; converged {
			span.EndCycle = st.convergedAt
			convSaved = out.Cycles - st.convergedAt
		}
		steady = st.steadyCycles
		emulated = span.EndCycle - steady
		if forwarded = st.forwarded; forwarded {
			saved = st.forwardedFrom
			emulated -= saved
		}
	}
	st := campaign.OutcomeInvalidRun
	if valid {
		st = out.Status
	}

	rs.mu.Lock()
	sum.Experiments++
	sum.ByStatus[st]++
	if !valid {
		sum.InvalidRuns++
	} else {
		if injected {
			sum.Injected++
		}
		if st == campaign.OutcomeDetected {
			sum.ByMechanism[out.Mechanism]++
		}
		if forwarded {
			sum.Forwarded++
			sum.CyclesSaved += saved
		}
		if converged {
			sum.Converged++
			sum.CyclesConverged += convSaved
		}
		if steady > 0 {
			sum.Steady++
			sum.CyclesSteady += steady
		}
		sum.CyclesEmulated += emulated
	}
	switch s.class {
	case PrunedLatent:
		sum.Pruned.Latent++
	case PrunedOverwritten:
		sum.Pruned.Overwritten++
	}
	rs.done++
	save := false
	if rs.ckpt != nil {
		if rs.sinceCkpt++; rs.sinceCkpt >= r.ckptEvery {
			rs.sinceCkpt = 0
			save = true
		}
	}
	rs.mu.Unlock()

	if valid {
		mCompleted.Inc()
		mCyclesEmulated.Add(emulated)
		mCyclesSaved.Add(saved)
	} else {
		mInvalidRuns.Inc()
		r.progress.Invalid()
	}
	if forwarded {
		mForwarded.Inc()
		r.progress.Forwarded()
	}
	switch s.class {
	case PrunedLatent:
		mPrunedLatent.Inc()
	case PrunedOverwritten:
		mPrunedOverwritten.Inc()
	}
	r.progress.Done(1)
	r.tracer.Record(span)
	if save {
		if err := rs.saveCursor(); err != nil {
			rs.fail(err)
		}
	}
}

// release hands the worker's board back to the fleet, if it holds one.
func (rs *run) release(b *board) {
	if b.lease != nil {
		rs.r.progress.BoardIdle(b.id)
		b.lease.Release()
		b.lease = nil
	}
}

// quarantine removes the worker's board from the fleet for good; the
// worker itself survives and may lease a healthy replacement.
func (rs *run) quarantine(b *board) {
	rs.mu.Lock()
	rs.sum.QuarantinedBoards++
	rs.mu.Unlock()
	mQuarantined.Inc()
	rs.r.progress.BoardQuarantined(b.id)
	b.lease.Quarantine()
	retire(b.target)
	b.lease, b.target = nil, nil
}

// acquire leases a board for the worker and derives the per-board retry
// state (jitter stream, busy counter) from the lease, so outcomes stay
// keyed to the plan, never to scheduling. The worker keeps its target
// across a release — every experiment re-initialises it — and takes one
// only at first and after a quarantine: the reference run's, the first
// time a worker asks, else a fresh one from the factory. False means the
// fleet is exhausted, the campaign stopped, or the context ended.
func (rs *run) acquire(b *board) bool {
	r := rs.r
	lease, err := rs.handle.Acquire(rs.runCtx)
	if err != nil {
		return false
	}
	target := b.target
	if target == nil {
		if target = rs.takeSpare(); target == nil {
			target = r.boardTarget()
		}
		installForwardSet(target, rs.fwSet)
	}
	*b = board{lease: lease, id: lease.Board(), target: target, fw: rs.fwSet,
		breaker: r.retry.BoardFailureThreshold,
		jitter:  rand.New(rand.NewSource(expSeed(r.camp.Seed, -3-lease.Board()))),
		busyNS:  mBoardBusyNS.With(strconv.Itoa(lease.Board())),
		ex:      b.ex, rows: b.rows}
	return true
}

// worker is one board worker. A worker is a goroutine, not a board: it
// leases a board from the fleet while it has work that needs one and the
// fair-share policy lets it keep it. Pause, Stop and cancellation reach it
// through the hand-over stage, which stops giving out work: a paused
// campaign's boards finish what they were given — at most a window — and
// wait without a lease.
func (rs *run) worker() {
	r, q := rs.r, rs.q
	b := &board{id: -1, rows: boardRows{recs: recordsFor(r.sink)}}
	defer func() {
		retire(b.target)
		rs.release(b)
	}()
	for {
		if b.lease != nil {
			r.progress.BoardIdle(b.id)
		}
		qe, ok, mustWait := q.tryPop()
		if mustWait {
			// Nothing to run until the stage classifies more or a
			// quarantined board gives an experiment back. Give the board up
			// before blocking: while only pruned rows are left this campaign
			// needs none, and the requeued experiment may need this very
			// board — or another campaign may.
			rs.release(b)
			qe, ok = q.pop()
		}
		if !ok {
			return
		}
		start := time.Now()
		if b.lease != nil && rs.handle.ShouldYield() {
			// Over the fair-share entitlement with another campaign
			// waiting: hand the board back between experiments.
			rs.release(b)
		}
		if b.lease == nil && !rs.acquire(b) {
			// Give the experiment back and retire. The leftover check
			// after the stage reports exhaustion; stop/cancel report
			// themselves.
			q.push(qe)
			return
		}
		mDispatched.Inc()
		r.progress.BoardRunning(b.id, int(rs.items[qe.idx]))
		rs.runOnBoard(b, qe, start)
	}
}

// runOnBoard climbs the ladder with one experiment on the worker's board
// and delivers how it ended to the hand-over stage — or, the board being
// suspect, gives the experiment back and quarantines the board.
func (rs *run) runOnBoard(b *board, qe queuedExperiment, start time.Time) {
	d := rs.climb(b, int(rs.items[qe.idx]), qe.name, &qe.attempts)
	if d.verdict == ladderSuspect {
		// Hand the experiment back for the surviving boards and
		// quarantine this one fleet-wide (the campaign fails cleanly if
		// it was the last).
		rs.q.push(qe)
		rs.quarantine(b)
		return
	}
	if d.verdict == ladderSpent {
		// Retries exhausted: the invalid run accounts for the plan slot.
		// Analysis excludes it from every effectiveness ratio.
		d.rec = rs.r.invalidRecord(d.ex, qe.attempts, d.err)
		d.stats.seq = d.ex.Seq
	}
	if d.verdict == ladderDone {
		rs.finish(b, &d)
	}
	d.idx, d.board = qe.idx, b.id
	d.wallNS = time.Since(start).Nanoseconds()
	b.busyNS.Add(uint64(d.wallNS))
	rs.delivered <- d
	if d.verdict == ladderSpent && b.breaker > 0 && b.fails >= b.breaker {
		rs.quarantine(b)
	}
}

// queuedExperiment is one item of the run on its way to a board: its index
// among the run's items, its name and its attempt count, which survives a
// requeue.
type queuedExperiment struct {
	idx      int
	attempts int
	name     string
}

// expQueue is the pull-based work queue between the hand-over stage and
// the board workers. The stage pushes the items that need a board; a
// quarantined board pushes its in-hand experiment back for the healthy
// ones. It stays open until the stage halts it.
type expQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []queuedExperiment
	halted bool
}

func newExpQueue() *expQueue {
	q := &expQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push queues an item for the boards.
func (q *expQueue) push(qe queuedExperiment) {
	q.mu.Lock()
	q.items = append(q.items, qe)
	mQueueDepth.Set(int64(len(q.items)))
	q.mu.Unlock()
	q.cond.Signal()
}

// tryPop is the non-blocking pop: ok reports work handed out, mustWait an
// empty queue that is not halted — the caller should release its board
// before falling back to the blocking pop.
func (q *expQueue) tryPop() (qe queuedExperiment, ok, mustWait bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.takeLocked()
}

func (q *expQueue) takeLocked() (qe queuedExperiment, ok, mustWait bool) {
	if q.halted {
		return queuedExperiment{}, false, false
	}
	if len(q.items) > 0 {
		qe = q.items[0]
		q.items = q.items[1:]
		mQueueDepth.Set(int64(len(q.items)))
		return qe, true, false
	}
	return queuedExperiment{}, false, true
}

// pop hands the next experiment to a worker. It blocks while the queue is
// empty and returns false once the queue is halted.
func (q *expQueue) pop() (queuedExperiment, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		qe, ok, mustWait := q.takeLocked()
		if !mustWait {
			return qe, ok
		}
		q.cond.Wait()
	}
}

// halt makes every current and future pop return false.
func (q *expQueue) halt() {
	q.mu.Lock()
	q.halted = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
