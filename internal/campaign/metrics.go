package campaign

import "goofi/internal/telemetry"

// Storage-pipeline metrics: what the batching sink queued and grouped,
// what EncodeRow made of the rows — in the sink's writer, or on a shard
// worker — and how long the underlying INSERT statements took. The histogram is
// observed around Store.LogExperiment/LogExperimentBatch, so it measures
// the sqldb engine (parse cache, constraint pass, WAL append) rather
// than the sink's queueing.
var (
	mSinkRecords = telemetry.NewCounter("goofi_campaign_sink_records_total",
		"Experiment records accepted by the batching sink.")
	mSinkBatches = telemetry.NewCounter("goofi_campaign_sink_batches_total",
		"Multi-row batches handed to the sink's writer goroutine.")
	mSinkFlushes = telemetry.NewCounter("goofi_campaign_sink_flushes_total",
		"Explicit sink flushes (checkpoints, pauses, termination).")
	// Whether the writer is on the boards' path: the time they waited for
	// room in the sink's queue, and how many commits the writer found queued
	// each time it came back (commits / groups; one barrier per group at most).
	mSinkWaitNS = telemetry.NewCounter("goofi_campaign_sink_wait_ns_total",
		"Nanoseconds LogExperiment, SaveCheckpoint, CommitRows and Flush spent waiting for room in the sink's queue.")
	mSinkGroups = telemetry.NewCounter("goofi_campaign_sink_groups_total",
		"Groups of queued commits the sink's writer applied, each behind one barrier at most.")
	mSinkGroupCommits = telemetry.NewCounter("goofi_campaign_sink_group_commits_total",
		"Commits (batches, stored-row reports, cursor saves) in those groups.")
	mRowsRelative = telemetry.NewCounter("goofi_sink_rows_relative_total",
		"LoggedSystemState rows encoded with the state relative to the reference run.")
	mRowsAbsolute = telemetry.NewCounter("goofi_sink_rows_absolute_total",
		"LoggedSystemState rows encoded with the whole state.")
	mStateBytes = telemetry.NewCounter("goofi_sink_state_bytes_total",
		"Bytes of stateVector blobs encoded, either form.")
	mInsertSeconds = telemetry.NewHistogram("goofi_sqldb_insert_seconds",
		"Latency of LoggedSystemState INSERT statements (single-row and batched).",
		telemetry.DurationBuckets)
)
