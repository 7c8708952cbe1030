package core

import "goofi/internal/campaign"

// ResultSink receives every record a campaign produces: end-of-experiment
// results, the reference run, and detail-mode step traces. The scheduler
// writes through this interface only, so storage can be synchronous
// (*campaign.Store) or batched and asynchronous (*campaign.BatchingSink)
// without the execution layer knowing.
//
// LogExperiment may be called from several board goroutines concurrently.
// Flush blocks until everything handed to the sink so far — records and,
// for a CheckpointSink, cursors — is durable; the scheduler calls it at
// pause checkpoints and on termination, after saving the cursor. GetExperiment must
// observe records previously passed to LogExperiment (read-your-writes);
// Rerun depends on it.
type ResultSink interface {
	LogExperiment(*campaign.ExperimentRecord) error
	GetExperiment(name string) (*campaign.ExperimentRecord, error)
	Flush() error
}

// CheckpointSink is a ResultSink that can persist a campaign cursor
// durably. SaveCheckpoint must store the cursor behind every record logged
// before it, so that a stored checkpoint always implies its experiments
// survived too; it need not be durable when SaveCheckpoint returns, only
// once a later Flush has (*campaign.Store raises the barrier at once,
// *campaign.BatchingSink queues the cursor behind the records and lets its
// writer raise one barrier for all it finds queued). A nil cursor asks for
// the barrier alone: a run writes its cursor, which only names the
// campaign, on its first save, and later saves only mark how far the rows
// before them are durable.
type CheckpointSink interface {
	ResultSink
	SaveCheckpoint(*campaign.Checkpoint) error
}
