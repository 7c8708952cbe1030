package shard

// The exactly-once property pin: no matter how ranges are partitioned,
// leased, abandoned, re-leased and reported — including duplicate and
// partial reports — every experiment sequence is merged into the store
// exactly once. The store itself is the witness: LoggedSystemState keys
// rows by experiment name, so a double merge is a constraint violation
// that poisons the coordinator's ingest path and fails the test.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/faultmodel"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// simClock is a manually advanced coordinator clock, safe against the
// background sweeper reading it concurrently.
type simClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *simClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *simClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// simRecord fabricates the end row of sequence seq (or the reference
// for seq < 0) with just enough shape for the merge path.
func simRecord(name string, seq int) campaign.Row {
	rec := &campaign.ExperimentRecord{
		Campaign: name,
		Step:     -1,
		Data:     campaign.ExperimentData{Seq: seq},
	}
	if seq < 0 {
		rec.Name = campaign.ReferenceName(name)
	} else {
		rec.Name = campaign.ExperimentName(name, seq)
	}
	return mustRow(rec)
}

// mustRow is campaign.EncodeRow of a record that has to encode.
func mustRow(rec *campaign.ExperimentRecord) campaign.Row {
	row, err := campaign.EncodeRow(rec)
	if err != nil {
		panic(err)
	}
	return row
}

// TestShardExactlyOnceUnderChurn drives a coordinator through seeded
// random interleavings of lease / partial report / duplicate report /
// worker death / clock-jump expiry, and asserts the plan completes with
// every sequence stored exactly once.
func TestShardExactlyOnceUnderChurn(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 20 + rng.Intn(120)
			shards := 1 + rng.Intn(6)
			name := "churn"
			db, err := sqldb.OpenAt(filepath.Join(t.TempDir(), "churn.db"), sqldb.SyncNever)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			st, err := campaign.NewStore(db)
			if err != nil {
				t.Fatal(err)
			}
			tsd := scifi.TargetSystemData("thor-board")
			if err := st.PutTargetSystem(tsd); err != nil {
				t.Fatal(err)
			}
			camp := &campaign.Campaign{
				Name:           name,
				TargetName:     "thor-board",
				ChainName:      "internal",
				Locations:      []string{"cpu"},
				FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient, Multiplicity: 1},
				Trigger:        trigger.Spec{Kind: "cycle", Occurrence: 1},
				RandomWindow:   [2]uint64{10, 100},
				NumExperiments: n,
				Seed:           1,
				Termination:    campaign.Termination{TimeoutCycles: 1000},
				Workload:       workload.All()["sort16"],
				LogMode:        campaign.LogNormal,
			}
			if err := st.PutCampaign(camp); err != nil {
				t.Fatal(err)
			}
			clock := &simClock{now: time.Unix(1000, 0)}
			ttl := time.Second
			coord, err := NewCoordinator(CoordinatorConfig{
				Store: st, Campaign: camp, Target: tsd,
				Shards:         shards,
				HeartbeatEvery: ttl / 3,
				LeaseTTL:       ttl,
				// High enough that churn never quarantines the whole
				// simulated fleet.
				MaxWorkerFailures: 1 << 20,
				NowFunc:           clock.Now,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			// The simulation is one goroutine on a fake clock: nobody else
			// could wake a parked Lease, so it asks with a finished context
			// and gets the coordinator's answer of the moment.
			noWait, cancel := context.WithCancel(context.Background())
			cancel()

			type liveLease struct {
				resp   *LeaseResponse
				cursor int // next unreported seq
			}
			workers := make([]string, 3+rng.Intn(4))
			for i := range workers {
				workers[i] = fmt.Sprintf("sim-w%d", i)
			}
			held := map[string]*liveLease{}
			sentRef := false
			done := func() bool {
				select {
				case <-coord.Done():
					return true
				default:
					return false
				}
			}
			for iter := 0; iter < 200_000 && !done(); iter++ {
				w := workers[rng.Intn(len(workers))]
				l := held[w]
				if l == nil {
					resp := coord.Lease(noWait, LeaseRequest{Worker: w})
					if resp.Status == LeaseRange {
						held[w] = &liveLease{resp: &resp, cursor: resp.Range.Lo}
					} else if resp.Status == LeaseWait {
						// Waiting on ranges held by dead workers: real time
						// would tick the sweeper and reap them.
						clock.Advance(ttl/2 + time.Millisecond)
						coord.Sweep()
					}
					continue
				}
				switch rng.Intn(10) {
				case 0: // die silently; the clock jump below reaps the lease
					delete(held, w)
				case 1: // jump past the TTL and sweep: every held lease expires
					clock.Advance(ttl + time.Millisecond)
					coord.Sweep()
					for k := range held {
						delete(held, k)
					}
				case 2, 3: // final report, possibly with an unfinished tail
					var recs []campaign.Row
					if !sentRef {
						recs = append(recs, simRecord(name, -1))
						sentRef = true
					}
					hi := l.cursor
					if rng.Intn(3) > 0 {
						hi = l.resp.Range.Hi
					}
					for s := l.cursor; s < hi; s++ {
						recs = append(recs, simRecord(name, s))
					}
					req := ReportRequest{
						Worker: w, LeaseID: l.resp.LeaseID, Rows: recs, Final: true,
						Delivery: fmt.Sprintf("%s/%s/%d", w, l.resp.LeaseID, iter),
					}
					ack, err := coord.Report(req)
					if err != nil && err != ErrBadLease {
						t.Fatal(err)
					}
					// A network-level retry of a final report that already
					// landed arrives after the lease was retired. The delivery
					// cache must re-ack it identically — not bounce it with
					// ErrBadLease, not merge it twice.
					if err == nil && rng.Intn(2) == 0 {
						ack2, err2 := coord.Report(req)
						if err2 != nil {
							t.Fatalf("retried final delivery %q: %v", req.Delivery, err2)
						}
						if ack2 != ack {
							t.Fatalf("retried final delivery %q acked %+v, first ack %+v",
								req.Delivery, ack2, ack)
						}
					}
					delete(held, w)
				default: // stream a chunk, sometimes re-sending older seqs
					lo := l.cursor
					if lo > l.resp.Range.Lo && rng.Intn(4) == 0 {
						lo = l.resp.Range.Lo + rng.Intn(lo-l.resp.Range.Lo) // duplicates
					}
					hi := l.cursor + 1 + rng.Intn(4)
					if hi > l.resp.Range.Hi {
						hi = l.resp.Range.Hi
					}
					var recs []campaign.Row
					if !sentRef || rng.Intn(8) == 0 {
						recs = append(recs, simRecord(name, -1))
						sentRef = true
					}
					for s := lo; s < hi; s++ {
						recs = append(recs, simRecord(name, s))
					}
					req := ReportRequest{
						Worker: w, LeaseID: l.resp.LeaseID, Rows: recs,
						Delivery: fmt.Sprintf("%s/%s/%d", w, l.resp.LeaseID, iter),
					}
					ack, err := coord.Report(req)
					switch {
					case err == ErrBadLease:
						delete(held, w)
					case err != nil:
						t.Fatal(err)
					default:
						// Duplicated delivery: the same request lands again
						// (lost ack, duplicating network) and must be re-acked
						// from the cache with the identical response.
						if rng.Intn(3) == 0 {
							ack2, err2 := coord.Report(req)
							if err2 != nil {
								t.Fatalf("retried delivery %q: %v", req.Delivery, err2)
							}
							if ack2 != ack {
								t.Fatalf("retried delivery %q acked %+v, first ack %+v",
									req.Delivery, ack2, ack)
							}
						}
						if hi > l.cursor {
							l.cursor = hi
						}
					}
				}
			}
			if !done() {
				merged, total := coord.Progress()
				t.Fatalf("simulation did not complete: %d/%d merged, complete=%v",
					merged, total, coord.Complete())
			}
			if err := coord.Close(); err != nil {
				t.Fatalf("close (first merge error): %v", err)
			}
			recs, err := st.Experiments(name)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[int]int{}
			for _, rec := range recs {
				seen[rec.Data.Seq]++
			}
			if len(recs) != n+1 {
				t.Fatalf("store has %d end records, want %d (+reference)", len(recs), n+1)
			}
			for s := -1; s < n; s++ {
				if seen[s] != 1 {
					t.Fatalf("sequence %d stored %d times, want exactly once", s, seen[s])
				}
			}
		})
	}
}
