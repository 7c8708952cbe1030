package proctarget

import (
	"time"

	"goofi/internal/campaign"
	"goofi/internal/telemetry"
)

// Telemetry for live-process campaigns: experiment volume, how the
// victims were started, the outcome class histogram (the ZOFI taxonomy is
// the headline result of a proc campaign), where a run's time goes by
// class, what reaching the injection points cost in ptrace stops, by
// kind, and how many crashes skipped the Go runtime's freeze sleep.
var (
	mExperiments = telemetry.NewCounter("goofi_proc_experiments_total",
		"Live-process experiments started (victims run under ptrace).")
	mSpawns = telemetry.NewCounterVec("goofi_proc_spawns_total",
		"Victim processes started, by how: exec (zygotes, prefix recordings, the reference-output capture, every child of a victim that cannot be forked) or fork (an experiment's child or a board's spare, from the board's zygote).", "how")
	mExecs  = mSpawns.With("exec")
	mForks  = mSpawns.With("fork")
	mSpares = telemetry.NewCounterVec("goofi_proc_spares_total",
		"Children forked from a board's zygote while the previous experiment's child ran, by fate: used (an experiment's child) or unused (dropped with their zygote, or when the board closed).", "fate")
	mSparesUsed   = mSpares.With("used")
	mSparesUnused = mSpares.With("unused")
	mOutcomes     = telemetry.NewCounterVec("goofi_proc_outcomes_total",
		"Live-process experiment outcomes by class.", "class")
	mRunNSVec = telemetry.NewCounterVec("goofi_proc_run_ns_total",
		"Nanoseconds from resuming a victim to reaping it, by outcome class.", "class")
	// mRunNS holds a child per class from the start, so that the
	// experiment path does no label lookup.
	mRunNS = func() map[campaign.OutcomeStatus]*telemetry.Counter {
		m := make(map[campaign.OutcomeStatus]*telemetry.Counter)
		for _, c := range []campaign.OutcomeStatus{campaign.OutcomeCompleted, campaign.OutcomeMasked,
			campaign.OutcomeSDC, campaign.OutcomeCrash, campaign.OutcomeHang} {
			m[c] = mRunNSVec.With(string(c))
		}
		return m
	}()
	mSteps = telemetry.NewCounter("goofi_proc_singlesteps_total",
		"PTRACE_SINGLESTEP requests issued: recording prefix traces, and reaching injection points where no trace guides there.")
	mStops = telemetry.NewCounter("goofi_proc_trigger_stops_total",
		"Ptrace stops at breakpoints spent reaching injection points along a prefix trace: one per counted guide (the hardware counts the hits before the last), one per hop of an int3 guide.")
	mGuides = telemetry.NewCounterVec("goofi_proc_guides_total",
		"Experiments guided to their injection point along a prefix trace, by how: counted (one hardware breakpoint that stops at the last of the hits) or int3 (hops from one int3 to the next, where the kernel refused the breakpoint).", "how")
	// Both children exist from the start, so a campaign counted throughout
	// exports a zero for int3, not an absent series.
	mGuidesCounted = mGuides.With("counted")
	mGuidesInt3    = mGuides.With("int3")
	mFallbacks     = telemetry.NewCounterVec("goofi_proc_trigger_fallbacks_total",
		"Experiments whose injection point was reached by single-stepping instead of along a prefix trace, by reason.", "reason")
	// Both children exist from the start, so a campaign without
	// fallbacks exports two zeros, not two absent series.
	mFallbackNondeterministic = mFallbacks.With("nondeterministic-prefix")
	mFallbackMismatch         = mFallbacks.With("arrival-mismatch")
	mFreezeSkips              = telemetry.NewCounter("goofi_proc_freeze_sleeps_skipped_total",
		"Crashes of single-threaded forked children that returned from the Go runtime's freezetheworld without its 1 ms sleep.")
)

// TriggerStats is what reaching the injection points has cost this
// process so far, for the run summary.
type TriggerStats struct {
	Experiments uint64 // victims run for experiments (reference runs included)
	Stops       uint64 // breakpoint stops along prefix traces
	Counted     uint64 // experiments guided by a counting hardware breakpoint
	Int3        uint64 // experiments guided by int3 hops
	SingleSteps uint64 // PTRACE_SINGLESTEP requests, recording included
	Fallbacks   uint64 // experiments single-stepped for want of a usable trace
	Forks       uint64 // children forked from zygotes, spares included
	Execs       uint64 // victims exec'd: zygotes, prefix recordings, reference-output captures
	// SparesUnused counts spares dropped without serving an experiment:
	// at most one per board, unless zygotes were dropped mid-campaign.
	SparesUnused uint64
	FreezeSkips  uint64 // crashes that skipped the runtime's freeze sleep
	// Run is the mean time from resume to reap, by the outcome classes
	// that occurred.
	Run map[campaign.OutcomeStatus]time.Duration
}

// ReadTriggerStats snapshots the trigger counters.
func ReadTriggerStats() TriggerStats {
	ts := TriggerStats{
		Experiments:  mExperiments.Value(),
		Stops:        mStops.Value(),
		Counted:      mGuidesCounted.Value(),
		Int3:         mGuidesInt3.Value(),
		SingleSteps:  mSteps.Value(),
		Fallbacks:    mFallbackNondeterministic.Value() + mFallbackMismatch.Value(),
		Forks:        mForks.Value(),
		Execs:        mExecs.Value(),
		SparesUnused: mSparesUnused.Value(),
		FreezeSkips:  mFreezeSkips.Value(),
		Run:          make(map[campaign.OutcomeStatus]time.Duration),
	}
	for class, ns := range mRunNS {
		// A class with time has runs, so its outcome counter exists.
		if ns.Value() > 0 {
			ts.Run[class] = time.Duration(ns.Value() / mOutcomes.With(string(class)).Value())
		}
	}
	return ts
}
