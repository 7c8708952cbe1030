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

import "sort"

// Range is a half-open span [Lo, Hi) of experiment sequence numbers.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of sequences in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Partition splits [0, n) into at most shards contiguous near-equal
// ranges. Fewer ranges come back when n < shards; empty ranges are
// never produced.
func Partition(n, shards int) []Range {
	if n <= 0 || shards <= 0 {
		return nil
	}
	if shards > n {
		shards = n
	}
	per := n / shards
	rem := n % shards
	out := make([]Range, 0, shards)
	lo := 0
	for i := 0; i < shards; i++ {
		hi := lo + per
		if i < rem {
			hi++
		}
		out = append(out, Range{Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}

// coalesce folds a set of sequence numbers into its maximal contiguous
// runs, ascending. Requeued work travels as ranges, so the holes a dead
// shard leaves behind become fresh leases.
func coalesce(seqs []int) []Range {
	if len(seqs) == 0 {
		return nil
	}
	sorted := append([]int(nil), seqs...)
	sort.Ints(sorted)
	var out []Range
	lo, hi := sorted[0], sorted[0]+1
	for _, s := range sorted[1:] {
		if s == hi {
			hi++
			continue
		}
		if s < hi {
			continue // duplicate
		}
		out = append(out, Range{Lo: lo, Hi: hi})
		lo, hi = s, s+1
	}
	return append(out, Range{Lo: lo, Hi: hi})
}
