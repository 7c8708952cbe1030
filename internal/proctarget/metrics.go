package proctarget

import "goofi/internal/telemetry"

// Telemetry for live-process campaigns: experiment volume, the outcome
// class histogram (the ZOFI taxonomy is the headline result of a proc
// campaign) and what reaching the injection points cost in ptrace
// stops, by kind.
var (
	mExperiments = telemetry.NewCounter("goofi_proc_experiments_total",
		"Live-process experiments started (victims forked under ptrace).")
	mOutcomes = telemetry.NewCounterVec("goofi_proc_outcomes_total",
		"Live-process experiment outcomes by class.", "class")
	mSteps = telemetry.NewCounter("goofi_proc_singlesteps_total",
		"PTRACE_SINGLESTEP requests issued: recording prefix traces, and reaching injection points where no trace guides there.")
	mStops = telemetry.NewCounter("goofi_proc_trigger_stops_total",
		"Breakpoint stops spent reaching injection points along a prefix trace.")
	mFallbacks = telemetry.NewCounterVec("goofi_proc_trigger_fallbacks_total",
		"Experiments whose injection point was reached by single-stepping instead of along a prefix trace, by reason.", "reason")
	// Both children exist from the start, so a campaign without
	// fallbacks exports two zeros, not two absent series.
	mFallbackNondeterministic = mFallbacks.With("nondeterministic-prefix")
	mFallbackMismatch         = mFallbacks.With("arrival-mismatch")
)

// TriggerStats is what reaching the injection points has cost this
// process so far, for the run summary.
type TriggerStats struct {
	Experiments uint64 // victims forked for experiments (reference runs included)
	Stops       uint64 // breakpoint stops along prefix traces
	SingleSteps uint64 // PTRACE_SINGLESTEP requests, recording included
	Fallbacks   uint64 // experiments single-stepped for want of a usable trace
}

// ReadTriggerStats snapshots the trigger counters.
func ReadTriggerStats() TriggerStats {
	return TriggerStats{
		Experiments: mExperiments.Value(),
		Stops:       mStops.Value(),
		SingleSteps: mSteps.Value(),
		Fallbacks:   mFallbackNondeterministic.Value() + mFallbackMismatch.Value(),
	}
}
