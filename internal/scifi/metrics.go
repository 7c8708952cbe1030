package scifi

import "goofi/internal/telemetry"

// Checkpoint-forwarding counters. Cycle totals (emulated vs saved) are
// accounted centrally by the scheduler, which already folds them into
// the campaign summary; here we count the forwarding machinery itself.
var (
	mFwRecorded = telemetry.NewCounter("goofi_scifi_forward_checkpoints_recorded_total",
		"Board snapshots captured during reference runs for checkpoint forwarding.")
	mFwRestores = telemetry.NewCounter("goofi_scifi_forward_restores_total",
		"Experiments that restored a forward checkpoint instead of cold-starting.")
	mFwConverged = telemetry.NewCounter("goofi_scifi_forward_converged_total",
		"Experiments ended on the reference run's end state after re-joining it at an iteration boundary.")
	mSteady = telemetry.NewCounter("goofi_scifi_steady_skips_total",
		"Runs, reference runs included, moved to their last iteration once their board state repeated its state one iteration earlier.")
)
