// Package shard distributes one campaign's experiment plan across many
// worker processes. A coordinator partitions the plan into contiguous
// sequence ranges and leases them to workers; each worker runs its range
// with its own board pool, keeps nothing, and reports the logged rows
// back; the coordinator merges them into the canonical campaign store —
// the only one — through the write-behind sink a solo run logs through.
//
// Correctness rests on the plan-first determinism the rest of the tree
// already pins: every experiment's seed derives only from the campaign
// seed and its sequence number, so any subset of the plan executed
// anywhere produces records byte-identical to a solo `goofi run`. The
// conformance suite in this package proves that identity for the merged
// result, across shard counts, a shard killed mid-range, and a
// coordinator restart.
//
// Failure handling lifts the PR 4 retry/quarantine machinery to the
// shard level: a worker proves liveness with heartbeats; a lease whose
// heartbeat lapses is expired and its unfinished sequences are requeued
// as fresh ranges, and a worker that keeps expiring leases is
// quarantined (told to exit) instead of being leased more work.
package shard

// Range is a half-open span [Lo, Hi) of experiment sequence numbers.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}
