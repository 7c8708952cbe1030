package core

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goofi/internal/campaign"
)

// flakyTarget is a fakeTarget whose ReadScanChain misbehaves in a
// programmable way on a chosen sequence number, with a failure budget
// shared across factory-created instances (a retried experiment may run
// on a fresh target after a power cycle).
type flakyTarget struct {
	*fakeTarget
	failSeq   int    // experiment sequence to sabotage (-2 = every one but the reference)
	mode      string // "error", "persistent", "panic", "hang"
	remaining *int32 // shared failure budget; <0 disables
}

func (f *flakyTarget) ReadScanChain(ex *Experiment) error {
	if (f.failSeq == -2 && ex.Seq >= 0 || ex.Seq == f.failSeq) && atomic.AddInt32(f.remaining, -1) >= 0 {
		switch f.mode {
		case "panic":
			panic("flaky harness panic")
		case "hang":
			time.Sleep(300 * time.Millisecond)
		case "persistent":
			return &ExperimentError{Class: Persistent, Experiment: ex.Name,
				Err: context.DeadlineExceeded}
		default:
			return &ExperimentError{Class: Transient, Experiment: ex.Name,
				Err: errors.New("scan shift glitched")}
		}
	}
	return f.fakeTarget.ReadScanChain(ex)
}

func flakyFactory(failSeq int, mode string, budget int32) func() TargetSystem {
	remaining := budget
	return func() TargetSystem {
		return &flakyTarget{fakeTarget: newFakeTarget(), failSeq: failSeq,
			mode: mode, remaining: &remaining}
	}
}

// recordRows renders a campaign's stored end-of-experiment records as
// JSON lines for byte-level comparison.
func recordRows(t *testing.T, st *campaign.Store, name string) []string {
	t.Helper()
	recs, err := st.Experiments(name)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, 0, len(recs))
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, string(b))
	}
	return rows
}

// TestWorkerPanicDoesNotCrashProcess is the satellite fix: a panic in a
// board worker becomes a classified error (legacy policy) instead of
// killing the process, and the already-completed results stay durable.
func TestWorkerPanicDoesNotCrashProcess(t *testing.T) {
	camp := fakeCampaign(10)
	st := storeWithCampaign(t, camp)
	r, err := NewRunner(nil, SCIFI, camp, fakeTSD(),
		WithSink(st),
		WithBoards(1, flakyFactory(5, "panic", 1)))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err == nil {
		t.Fatal("worker panic did not surface as an error")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Errorf("error does not mention the panic: %v", err)
	}
	if sum == nil {
		t.Fatal("no partial summary returned on error")
	}
	// Experiments 0..4 completed before the panic and must be durable.
	if sum.Experiments != 5 {
		t.Errorf("partial summary has %d experiments, want 5", sum.Experiments)
	}
	recs, err := st.Experiments(camp.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 { // reference + 5 experiments
		t.Errorf("store holds %d records, want 6", len(recs))
	}
}

// TestSchedulerErrorDrainsAndFlushes is the other satellite fix: on the
// first experiment error the scheduler drains in-flight workers and
// flushes the sink before reporting, so completed results written
// through an asynchronous sink are not lost.
func TestSchedulerErrorDrainsAndFlushes(t *testing.T) {
	camp := fakeCampaign(12)
	st := storeWithCampaign(t, camp)
	sink := campaign.NewBatchingSink(st, 64) // big batch: only a flush drains it
	r, err := NewRunner(nil, SCIFI, camp, fakeTSD(),
		WithSink(sink),
		WithBoards(1, flakyFactory(7, "error", 1)))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err == nil {
		t.Fatal("experiment error did not surface")
	}
	if sum == nil || sum.Experiments != 7 {
		t.Fatalf("partial summary = %+v, want 7 experiments", sum)
	}
	// Without Close: the records must already be durable from Run's
	// termination flush.
	recs, err := st.Experiments(camp.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 { // reference + 7
		t.Errorf("store holds %d records after failed run, want 8", len(recs))
	}
}

// TestRetryConvergesToIdenticalRecords: transient harness failures, after
// retries, leave records byte-identical to an undisturbed run's.
func TestRetryConvergesToIdenticalRecords(t *testing.T) {
	camp := fakeCampaign(10)
	healthySt := storeWithCampaign(t, camp)
	r, err := NewRunner(nil, SCIFI, camp, fakeTSD(),
		WithSink(healthySt), WithBoards(1, func() TargetSystem { return newFakeTarget() }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	flakySt := storeWithCampaign(t, camp)
	rf, err := NewRunner(nil, SCIFI, camp, fakeTSD(),
		WithSink(flakySt),
		WithBoards(1, flakyFactory(4, "error", 3)),
		WithRetryPolicy(RetryPolicy{MaxRetries: 5, BackoffBase: time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rf.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Retried != 3 {
		t.Errorf("retried = %d, want 3", sum.Retried)
	}
	if sum.InvalidRuns != 0 {
		t.Errorf("invalid runs = %d, want 0", sum.InvalidRuns)
	}
	healthy := recordRows(t, healthySt, camp.Name)
	flaky := recordRows(t, flakySt, camp.Name)
	if len(healthy) != len(flaky) {
		t.Fatalf("row counts differ: healthy %d, flaky %d", len(healthy), len(flaky))
	}
	for i := range healthy {
		if healthy[i] != flaky[i] {
			t.Errorf("row %d differs:\nhealthy: %s\nflaky:   %s", i, healthy[i], flaky[i])
		}
	}
}

// TestInvalidRunRecorded: an experiment that fails every attempt is
// recorded as OutcomeInvalidRun with its attempt count, and the campaign
// still completes.
func TestInvalidRunRecorded(t *testing.T) {
	camp := fakeCampaign(8)
	st := storeWithCampaign(t, camp)
	r, err := NewRunner(nil, SCIFI, camp, fakeTSD(),
		WithSink(st),
		WithBoards(1, flakyFactory(3, "error", 1<<20)),
		WithRetryPolicy(RetryPolicy{MaxRetries: 2, BackoffBase: time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Experiments != 8 {
		t.Errorf("experiments = %d, want 8", sum.Experiments)
	}
	if sum.InvalidRuns != 1 || sum.ByStatus[campaign.OutcomeInvalidRun] != 1 {
		t.Errorf("invalid runs = %d (by status %d), want 1",
			sum.InvalidRuns, sum.ByStatus[campaign.OutcomeInvalidRun])
	}
	rec, err := st.GetExperiment(campaign.ExperimentName(camp.Name, 3))
	if err != nil {
		t.Fatal(err)
	}
	out := rec.Data.Outcome
	if out.Status != campaign.OutcomeInvalidRun {
		t.Errorf("status = %q, want invalid-run", out.Status)
	}
	if out.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", out.Attempts)
	}
	if out.HarnessError == "" {
		t.Error("harness error not recorded")
	}
	if rec.Data.Injected {
		t.Error("invalid run marked injected")
	}
}

// TestWatchdogRecoversWedgedBoard: a hang past the watchdog deadline is
// classified Wedged, the board is power-cycled via the factory, and the
// retried experiment succeeds.
func TestWatchdogRecoversWedgedBoard(t *testing.T) {
	camp := fakeCampaign(6)
	st := storeWithCampaign(t, camp)
	r, err := NewRunner(nil, SCIFI, camp, fakeTSD(),
		WithSink(st),
		WithBoards(1, flakyFactory(2, "hang", 1)),
		WithRetryPolicy(RetryPolicy{
			MaxRetries:      2,
			WatchdogTimeout: 30 * time.Millisecond,
			BackoffBase:     time.Microsecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Experiments != 6 || sum.InvalidRuns != 0 {
		t.Errorf("experiments = %d invalid = %d, want 6/0", sum.Experiments, sum.InvalidRuns)
	}
	if sum.Retried != 1 {
		t.Errorf("retried = %d, want 1", sum.Retried)
	}
}

// barrierTarget holds its first experiment at InitTestCard until all
// boards in the group have started one, so a multi-board test provably
// hands at least one experiment to every board before the fast fakes
// drain the queue.
type barrierTarget struct {
	TargetSystem
	once    sync.Once
	started *int32
	n       int32
	gate    chan struct{}
}

func (b *barrierTarget) InitTestCard(ex *Experiment) error {
	if ex.Seq < 0 {
		return b.TargetSystem.InitTestCard(ex) // the reference runs before the workers exist
	}
	b.once.Do(func() {
		if atomic.AddInt32(b.started, 1) == b.n {
			close(b.gate)
		}
		<-b.gate
	})
	return b.TargetSystem.InitTestCard(ex)
}

// TestQuarantineReassignsWork: with one persistently broken board of
// three, the circuit breaker quarantines it and the surviving boards
// complete the whole plan with clean records.
func TestQuarantineReassignsWork(t *testing.T) {
	camp := fakeCampaign(20)
	st := storeWithCampaign(t, camp)
	// Factory call 1 is the reference board, which the first worker then
	// takes; one of the three worker boards is broken for every experiment
	// it touches. The start barrier guarantees each worker board pops an
	// experiment before the healthy ones race through the rest of the queue.
	var calls, started int32
	gate := make(chan struct{})
	factory := func() TargetSystem {
		n := atomic.AddInt32(&calls, 1)
		var inner TargetSystem = newFakeTarget()
		if n == 3 {
			bad := int32(1 << 20)
			inner = &flakyTarget{fakeTarget: newFakeTarget(), failSeq: -2,
				mode: "error", remaining: &bad}
		}
		return &barrierTarget{TargetSystem: inner, started: &started, n: 3, gate: gate}
	}
	r, err := NewRunner(nil, SCIFI, camp, fakeTSD(),
		WithSink(st),
		WithBoards(3, factory),
		WithRetryPolicy(RetryPolicy{
			MaxRetries:            3,
			BoardFailureThreshold: 2,
			BackoffBase:           time.Microsecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Experiments != 20 {
		t.Errorf("experiments = %d, want 20", sum.Experiments)
	}
	if sum.QuarantinedBoards != 1 {
		t.Errorf("quarantined boards = %d, want 1", sum.QuarantinedBoards)
	}
	if sum.InvalidRuns != 0 {
		t.Errorf("invalid runs = %d, want 0 (failures were the board's fault)", sum.InvalidRuns)
	}
	recs, err := st.Experiments(camp.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 21 { // reference + 20
		t.Errorf("store holds %d records, want 21", len(recs))
	}
	for _, rec := range recs {
		if rec.Data.Outcome.Status == campaign.OutcomeInvalidRun {
			t.Errorf("%s recorded invalid", rec.Name)
		}
	}
}

// TestAllBoardsQuarantined: when every board trips the circuit breaker
// the campaign fails with a clear error and a partial summary, instead
// of hanging or silently dropping the remaining plan.
func TestAllBoardsQuarantined(t *testing.T) {
	camp := fakeCampaign(10)
	st := storeWithCampaign(t, camp)
	factory := func() TargetSystem {
		// Every target — the reference's, which the single worker takes
		// over, and any power-cycle replacement — is broken for every
		// experiment but the reference.
		bad := int32(1 << 20)
		return &flakyTarget{fakeTarget: newFakeTarget(), failSeq: -2,
			mode: "error", remaining: &bad}
	}
	r, err := NewRunner(nil, SCIFI, camp, fakeTSD(),
		WithSink(st),
		WithBoards(1, factory),
		WithRetryPolicy(RetryPolicy{
			MaxRetries:            5,
			BoardFailureThreshold: 2,
			BackoffBase:           time.Microsecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("err = %v, want all-boards-quarantined error", err)
	}
	if sum == nil {
		t.Fatal("no partial summary on quarantine failure")
	}
	if sum.QuarantinedBoards != 1 {
		t.Errorf("quarantined boards = %d, want 1", sum.QuarantinedBoards)
	}
}

// TestRetryPolicyBackoff pins the backoff envelope: exponential growth
// from the base, capped at the max, jitter below 50%.
func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{BackoffBase: 4 * time.Millisecond, BackoffMax: 20 * time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	wantBase := []time.Duration{
		4 * time.Millisecond,  // attempt 2
		8 * time.Millisecond,  // attempt 3
		16 * time.Millisecond, // attempt 4
		20 * time.Millisecond, // attempt 5 (capped)
		20 * time.Millisecond, // attempt 6 (capped)
	}
	for i, want := range wantBase {
		got := p.backoff(i+2, rng)
		if got < want || got > want+want/2 {
			t.Errorf("backoff(attempt %d) = %v, want in [%v, %v]", i+2, got, want, want+want/2)
		}
	}
}
