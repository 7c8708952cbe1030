package core

import (
	"goofi/internal/telemetry"
)

// Scheduler and fault-tolerance metrics. These are package-level and
// always on: every update is a single atomic add, cheap enough to leave
// unconditional, which keeps the hot path free of telemetry branches
// and guarantees the telemetry-on and telemetry-off configurations
// execute identical experiment code (the differential test's premise).
var (
	mDispatched = telemetry.NewCounter("goofi_scheduler_experiments_dispatched_total",
		"Experiments handed to a board worker (includes re-dispatch after requeue).")
	mCompleted = telemetry.NewCounter("goofi_scheduler_experiments_completed_total",
		"Experiments that finished and were logged successfully.")
	mForwarded = telemetry.NewCounter("goofi_scheduler_experiments_forwarded_total",
		"Experiments that restored a checkpoint instead of re-emulating the fault-free prefix.")
	mInvalidRuns = telemetry.NewCounter("goofi_scheduler_invalid_runs_total",
		"Experiments recorded as invalid after exhausting their retry budget.")
	mQueueDepth = telemetry.NewGauge("goofi_scheduler_queue_depth",
		"Experiments waiting in the dispatch queue.")
	mBoardBusyNS = telemetry.NewCounterVec("goofi_scheduler_board_busy_ns_total",
		"Wall-clock nanoseconds each board spent executing experiment attempts.", "board")
	mQuarantined = telemetry.NewCounter("goofi_scheduler_boards_quarantined_total",
		"Boards removed by the circuit breaker.")
	mCyclesEmulated = telemetry.NewCounter("goofi_scheduler_cycles_emulated_total",
		"Target cycles actually emulated across reference runs and experiments.")
	mCyclesSaved = telemetry.NewCounter("goofi_scheduler_cycles_saved_total",
		"Target cycles skipped by checkpoint fast-forwarding.")

	mPruned = telemetry.NewCounterVec("goofi_experiments_pruned_total",
		"Experiments whose rows were synthesized from the reference run's def-use table instead of being emulated, by class.", "class")

	mRetries = telemetry.NewCounterVec("goofi_robust_retries_total",
		"Experiment attempts retried, by harness failure class.", "class")
	mWatchdogFires = telemetry.NewCounter("goofi_robust_watchdog_fires_total",
		"Attempts killed by the wall-clock watchdog or the emulated-cycle cap.")
	mBackoffNS = telemetry.NewCounter("goofi_robust_backoff_ns_total",
		"Nanoseconds spent in retry backoff sleeps.")
)

// Prune-class children resolved once, so an unpruned run exports zeros.
var (
	mPrunedLatent      = mPruned.With(PrunedLatent.String())
	mPrunedOverwritten = mPruned.With(PrunedOverwritten.String())
)

// Retry-class children resolved once so the retry path stays off the
// family's mutex.
var (
	mRetriesTransient  = mRetries.With(Transient.String())
	mRetriesPersistent = mRetries.With(Persistent.String())
	mRetriesWedged     = mRetries.With(Wedged.String())
)

func retryCounter(c ErrorClass) *telemetry.Counter {
	switch c {
	case Persistent:
		return mRetriesPersistent
	case Wedged:
		return mRetriesWedged
	default:
		return mRetriesTransient
	}
}

// WithTelemetry attaches the allocating half of the observability layer
// to a runner: the span tracer (phase intervals destined for the
// CampaignTelemetry table) and the live progress tracker — the run's one
// progress view (paper Fig 7), served at /progress and rendered by goofi
// run's progress line. Both may be nil; the always-on atomic counters
// above need no option. Telemetry observes the campaign strictly from the outside —
// it never feeds back into experiment construction, RNG draws, or record
// bytes, so a telemetered run is byte-identical to a bare one.
func WithTelemetry(tr *telemetry.Tracer, prog *telemetry.Progress) RunnerOption {
	return func(r *Runner) {
		r.tracer = tr
		r.progress = prog
	}
}
