package shard

// The coordinator/worker wire protocol over the daemon's HTTP surface
// (POST /api/v1/shards/{tenant}/{name}/...): hello, lease and heartbeat
// are JSON, a report is one binary frame (frame.go). The same
// request/response structs drive the in-process Direct transport, so a
// worker cannot tell one from the other.

import (
	"errors"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/core"
)

// ProtocolVersion is the wire protocol both sides must speak. Version 2
// replaced the JSON report body of records with a binary frame of stored
// rows; version 3 folded the lease's imageBytes into its targetParams, so
// a worker that no longer reads the one cannot be handed a lease by a
// coordinator that still sets it; version 4 let a row's stateVector be
// relative to the reference run, which a version-3 coordinator would store
// and then fail to analyze. Hello carries the number so a mixed fleet fails
// on its first call with a sentence, not on its first report with a decode
// error, on a target built from the wrong image or at analysis.
const ProtocolVersion = 4

// ErrProtocol rejects a peer that speaks another protocol version. It is
// terminal: the same binary will say the same thing again.
var ErrProtocol = errors.New("shard: protocol version mismatch")

// Lease outcomes.
const (
	// LeaseRange hands the worker a range to execute.
	LeaseRange = "range"
	// LeaseWait means no range came free while the coordinator held the
	// request (all leased out), but the campaign is not finished — ask
	// again at once; the coordinator does the waiting.
	LeaseWait = "wait"
	// LeaseDone means no work remains for this worker: the campaign is
	// complete, or the worker has been quarantined.
	LeaseDone = "done"
)

// ErrBadLease rejects a heartbeat or report whose lease the coordinator
// no longer recognises — it expired and was requeued, or predates a
// coordinator restart. The worker abandons the range and leases anew;
// requeue plus ingest dedup keep the plan covered exactly once.
var ErrBadLease = errors.New("shard: unknown or expired lease")

// HelloRequest registers a worker with the coordinator before it leases
// any work. Registration is advisory — a worker the coordinator has
// never heard of can still lease — but it makes the fleet visible in
// /progress from the moment a worker connects, and it is the cheapest
// call on which to discover a bad token.
type HelloRequest struct {
	Worker string `json:"worker"`
	// Host is the worker's self-reported host, for fleet display.
	Host string `json:"host,omitempty"`
	// Protocol is the worker's ProtocolVersion.
	Protocol int `json:"protocol"`
}

// HelloResponse acknowledges a registration.
type HelloResponse struct {
	Status string `json:"status"`
	// Workers is how many workers the coordinator currently knows.
	Workers int `json:"workers"`
	// Protocol is the coordinator's ProtocolVersion.
	Protocol int `json:"protocol"`
}

// LeaseRequest asks for a range on behalf of a named worker.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse carries a granted range together with everything the
// worker needs to execute it from a cold start: the campaign and target
// definitions, the technique, the run options and the heartbeat period.
type LeaseResponse struct {
	Status  string `json:"status"`
	LeaseID string `json:"leaseId,omitempty"`
	Range   Range  `json:"range"`

	Campaign *campaign.Campaign         `json:"campaign,omitempty"`
	Target   *campaign.TargetSystemData `json:"target,omitempty"`
	// RunOptions are the submission's run options (its image size folded
	// into TargetParams), applied to every range as the solo path applies
	// them to the whole campaign.
	core.RunOptions
	// HeartbeatEvery is how often the worker must prove liveness while
	// it holds the lease.
	HeartbeatEvery time.Duration `json:"heartbeatEvery,omitempty"`
}

// HeartbeatRequest extends a lease.
type HeartbeatRequest struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"leaseId"`
}

// ReportRequest delivers a batch of logged rows for a lease, in the
// stored form the coordinator's store inserts as it is. Final marks the
// last batch of the range; the coordinator commits it durably and retires
// the lease on it.
type ReportRequest struct {
	Worker  string
	LeaseID string
	Rows    []campaign.Row
	Final   bool
	// Delivery is the batch's idempotency key. The coordinator's merge
	// was always idempotent (the two-pass filter drops already-accepted
	// sequences); the key makes the *acknowledgement* idempotent too: a
	// retried delivery whose first copy already landed — a response lost
	// to a timeout, reset, or asymmetric partition — is answered from
	// the coordinator's delivery cache instead of re-processed, so the
	// worker stops re-sending. Empty keys skip the cache.
	Delivery string
}

// ReportResponse acknowledges a batch. Accepted counts the rows
// actually ingested; duplicates of already-merged sequences (requeue
// races, repeated references) are dropped silently.
type ReportResponse struct {
	Accepted int `json:"accepted"`
}
