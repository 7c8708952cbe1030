package shard_test

// The partition-tolerance pin: a sharded campaign whose every
// coordinator/worker call crosses a deterministically hostile network —
// dropped requests, lost acknowledgements, delays, duplicated
// deliveries, truncated responses, full and asymmetric partitions —
// must still merge LoggedSystemState records and an analysis report
// byte-identical to a solo run. The chaos.Net engine draws faults from
// its own seeded RNG, so the experiment plan is untouched; everything
// the network breaks, the lease/requeue/idempotency machinery must
// absorb. These tests are part of tier 1 and run under -race.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/chaos"
	"goofi/internal/scifi"
	"goofi/internal/server"
	"goofi/internal/shard"
	"goofi/internal/sqldb"
)

// chaosFleet runs camp to completion through a coordinator and one
// in-process worker per net, every transport call crossing that
// worker's chaos.Net. Returns the merged canonical store. script, when
// set, runs alongside the fleet with the live coordinator (partition
// scheduling); it must return before the campaign can be considered
// stuck.
func chaosFleet(t *testing.T, camp *campaign.Campaign, hb, ttl time.Duration,
	nets []*chaos.Net, onRecord []func(*campaign.ExperimentRecord),
	script func(coord *shard.Coordinator)) *campaign.Store {
	t.Helper()
	db, err := sqldb.OpenAt(filepath.Join(t.TempDir(), "merged.db"), sqldb.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	st, err := campaign.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	tsd := scifi.TargetSystemData(camp.TargetName)
	if err := st.PutTargetSystem(tsd); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign(camp); err != nil {
		t.Fatal(err)
	}
	coord, err := shard.NewCoordinator(shard.CoordinatorConfig{
		Store: st, Campaign: camp, Target: tsd,
		Shards:         len(nets),
		HeartbeatEvery: hb,
		LeaseTTL:       ttl,
	})
	if err != nil {
		t.Fatal(err)
	}

	wctx, wcancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer wcancel()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i, net := range nets {
		var hook func(*campaign.ExperimentRecord)
		if i < len(onRecord) {
			hook = onRecord[i]
		}
		w, err := shard.NewWorker(shard.WorkerConfig{
			Name:      fmt.Sprintf("cw%d", i),
			Boards:    1,
			Transport: net.Transport(shard.Direct{C: coord}),
			Poll:      10 * time.Millisecond,
			OnRecord:  hook,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(wctx); err != nil && wctx.Err() == nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	if script != nil {
		script(coord)
	}
	select {
	case <-coord.Done():
	case <-wctx.Done():
		merged, total := coord.Progress()
		t.Fatalf("campaign stuck: %d/%d merged", merged, total)
	}
	wcancel()
	wg.Wait()
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if err := coord.Err(); err != nil {
		t.Fatalf("merge error: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		t.Fatalf("worker error: %v", firstErr)
	}
	return st
}

// waitCoord polls cond every 5ms until it holds or the coordinator
// finishes; the bool reports whether cond ever held.
func waitCoord(coord *shard.Coordinator, cond func() bool, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		select {
		case <-coord.Done():
			return false
		case <-time.After(5 * time.Millisecond):
		}
	}
	return false
}

// TestNetChaosConformanceDropDelayDuplicate is the broad-spectrum
// schedule: every fault kind at once, two seeds, each worker on its own
// seeded fault stream.
func TestNetChaosConformanceDropDelayDuplicate(t *testing.T) {
	const n = 40
	camp := conformanceCampaign("chaosnet", n)
	solo := soloRun(t, camp)
	wantRecs := recordBytes(t, solo, "chaosnet")
	wantReport := reportText(t, solo, "chaosnet")

	for _, seed := range []int64{101, 202} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			nets := []*chaos.Net{
				chaos.NewNet(chaos.NetConfig{Seed: seed, DropRequestProb: 0.15,
					DropResponseProb: 0.10, DelayProb: 0.2, Delay: 2 * time.Millisecond,
					DuplicateProb: 0.15, TruncateProb: 0.10}),
				chaos.NewNet(chaos.NetConfig{Seed: seed + 1, DropRequestProb: 0.15,
					DropResponseProb: 0.10, DelayProb: 0.2, Delay: 2 * time.Millisecond,
					DuplicateProb: 0.15, TruncateProb: 0.10}),
			}
			st := chaosFleet(t, camp, 50*time.Millisecond, 150*time.Millisecond, nets, nil, nil)
			assertIdentical(t, st, "chaosnet", wantRecs, wantReport)
			if nets[0].Faults()+nets[1].Faults() == 0 {
				t.Fatal("no network faults fired; the schedule is vacuous")
			}
		})
	}
}

// TestNetChaosConformanceAckLoss drowns the report path in lost and
// truncated acknowledgements: half the responses vanish after the
// coordinator has already processed the call — the exact scenario the
// delivery idempotency key exists for.
func TestNetChaosConformanceAckLoss(t *testing.T) {
	const n = 40
	camp := conformanceCampaign("chaosack", n)
	solo := soloRun(t, camp)
	wantRecs := recordBytes(t, solo, "chaosack")
	wantReport := reportText(t, solo, "chaosack")

	nets := []*chaos.Net{
		chaos.NewNet(chaos.NetConfig{Seed: 7, DropResponseProb: 0.5, TruncateProb: 0.25}),
		chaos.NewNet(chaos.NetConfig{Seed: 8, DropResponseProb: 0.5, TruncateProb: 0.25}),
	}
	st := chaosFleet(t, camp, 50*time.Millisecond, 150*time.Millisecond, nets, nil, nil)
	assertIdentical(t, st, "chaosack", wantRecs, wantReport)
	if nets[0].Faults()+nets[1].Faults() == 0 {
		t.Fatal("no network faults fired; the schedule is vacuous")
	}
}

// TestNetChaosConformanceFullPartitionHeal cuts one worker off
// completely until its lease provably expired (heartbeat loss), then
// heals; the survivor absorbs the requeued range, the healed worker
// rejoins, and the merge still matches the solo run.
func TestNetChaosConformanceFullPartitionHeal(t *testing.T) {
	const n = 120
	camp := conformanceCampaign("chaospart", n)
	solo := soloRun(t, camp)
	wantRecs := recordBytes(t, solo, "chaospart")
	wantReport := reportText(t, solo, "chaospart")

	nets := []*chaos.Net{chaos.NewNet(chaos.NetConfig{}), chaos.NewNet(chaos.NetConfig{})}
	// Partition worker 0 from inside its own record stream: three records
	// into its range — mid-lease, with most of the range still pending —
	// its network goes dark. Gating on the worker's OnRecord hook (rather
	// than on wall-clock or coordinator progress) guarantees the schedule
	// engages before the campaign can finish.
	var recs atomic.Int64
	partitioned := make(chan struct{})
	hook := func(*campaign.ExperimentRecord) {
		if recs.Add(1) == 3 {
			nets[0].PartitionFull()
			close(partitioned)
		}
	}
	script := func(coord *shard.Coordinator) {
		go func() {
			select {
			case <-partitioned:
			case <-coord.Done():
				return
			}
			// Hold the partition until the coordinator has actually reaped
			// a lease from the cut-off worker — the heartbeat-loss moment —
			// or the survivor finished the campaign without it.
			waitCoord(coord, func() bool {
				for _, w := range coord.Fleet() {
					if w.Name == "cw0" && w.Failures >= 1 {
						return true
					}
				}
				return false
			}, 60*time.Second)
			nets[0].Heal()
		}()
	}
	st := chaosFleet(t, camp, 50*time.Millisecond, 150*time.Millisecond, nets,
		[]func(*campaign.ExperimentRecord){hook}, script)
	select {
	case <-partitioned:
	default:
		t.Fatal("partition never engaged; the schedule is vacuous")
	}
	assertIdentical(t, st, "chaospart", wantRecs, wantReport)
}

// TestNetChaosConformanceAsymmetricPartition opens the nastier window:
// both workers' requests keep landing — leases grant, heartbeats count,
// reports merge — but every response vanishes. Stranded leases must
// expire and requeue, keyed report retries must be re-acked instead of
// re-merged, and after healing the result is still byte-identical.
func TestNetChaosConformanceAsymmetricPartition(t *testing.T) {
	const n = 120
	camp := conformanceCampaign("chaosasym", n)
	solo := soloRun(t, camp)
	wantRecs := recordBytes(t, solo, "chaosasym")
	wantReport := reportText(t, solo, "chaosasym")

	net := chaos.NewNet(chaos.NetConfig{})
	// Trip the asymmetric partition from worker 0's record stream so it is
	// guaranteed to open while ranges are still in flight.
	var recs atomic.Int64
	partitioned := make(chan struct{})
	hook := func(*campaign.ExperimentRecord) {
		if recs.Add(1) == 3 {
			net.PartitionAsym()
			close(partitioned)
		}
	}
	script := func(coord *shard.Coordinator) {
		go func() {
			select {
			case <-partitioned:
			case <-coord.Done():
				return
			}
			time.Sleep(400 * time.Millisecond)
			net.Heal()
		}()
	}
	// Both workers share the partitioned network.
	st := chaosFleet(t, camp, 50*time.Millisecond, 150*time.Millisecond,
		[]*chaos.Net{net, net},
		[]func(*campaign.ExperimentRecord){hook}, script)
	select {
	case <-partitioned:
	default:
		t.Fatal("partition never engaged; the schedule is vacuous")
	}
	assertIdentical(t, st, "chaosasym", wantRecs, wantReport)
}

// firsts is a worker transport that calls leased once, when the
// coordinator first grants it a range, and merged once, when the
// coordinator first acknowledges a report it merged rows from.
type firsts struct {
	shard.Transport
	leased, merged        func()
	leaseOnce, reportOnce sync.Once
}

func (f *firsts) Lease(ctx context.Context, req shard.LeaseRequest) (*shard.LeaseResponse, error) {
	resp, err := f.Transport.Lease(ctx, req)
	if err == nil && resp.Status == shard.LeaseRange {
		f.leaseOnce.Do(f.leased)
	}
	return resp, err
}

func (f *firsts) Report(ctx context.Context, req shard.ReportRequest) (*shard.ReportResponse, error) {
	resp, err := f.Transport.Report(ctx, req)
	if err == nil && resp.Accepted > 0 {
		f.reportOnce.Do(f.merged)
	}
	return resp, err
}

// TestNetChaosHTTPWorkerKilled is the hostile network on the real wire:
// the daemon's handler behind httptest, two workers on the HTTP transport
// whose clients cross their own seeded chaos network — dropped requests,
// lost responses, added latency — and one of them cut off after its first
// merged report. Retries, idempotent deliveries and the killed worker's
// requeued lease must absorb all of it, to the solo run's rows and report.
func TestNetChaosHTTPWorkerKilled(t *testing.T) {
	// Worker zero merges one report of at most 4*64 rows, so the survivor
	// makes at least n/256 - 1 report calls, over 13 here: seed 22's
	// network drops its 13th call whatever the timing, so a fault fires.
	const n = 4000
	camp := conformanceCampaign("chaoshttp", n)
	solo := soloRun(t, camp)
	wantRecs := recordBytes(t, solo, "chaoshttp")
	wantReport := reportText(t, solo, "chaoshttp")

	dir := t.TempDir()
	s, err := server.New(server.Config{
		DataDir: dir, Boards: 4, MaxConcurrent: 1,
		ShardHeartbeat: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/api/v1/campaigns", server.SubmitRequest{
		Tenant: "alice", Campaign: camp, Shards: 2, ExternalWorkers: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}

	var nets []*chaos.Net
	var wg sync.WaitGroup
	errs := make([]error, 2)
	leased, killed := make(chan struct{}), make(chan struct{})
	for i, seed := range []int64{11, 22} {
		net := chaos.NewNet(chaos.NetConfig{Seed: seed, DropRequestProb: 0.05,
			DropResponseProb: 0.05, DelayProb: 0.1, Delay: 5 * time.Millisecond})
		nets = append(nets, net)
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		var tr shard.Transport = &shard.HTTPTransport{
			Base: ts.URL, Tenant: "alice", Campaign: "chaoshttp",
			Client: &http.Client{Transport: net.RoundTripper(nil)},
		}
		if i == 0 {
			// Worker zero holds a range before the survivor starts, and dies
			// without a word once a report of it has merged.
			tr = &firsts{Transport: tr,
				leased: func() { close(leased) },
				merged: func() { cancel(); close(killed) }}
		} else {
			select {
			case <-leased:
			case <-time.After(60 * time.Second):
				t.Fatal("worker zero was never granted a range")
			}
		}
		w, err := shard.NewWorker(shard.WorkerConfig{
			Name: fmt.Sprintf("h%d", i), Boards: 1,
			Transport: tr, Poll: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				errs[i] = err
			}
		}()
	}
	if st := waitState(t, ts.URL, "alice", "chaoshttp"); st.State != server.StateDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatalf("worker error: %v", err)
	}
	select {
	case <-killed:
	default:
		t.Fatal("worker zero merged nothing before the campaign ended; the kill is vacuous")
	}
	shutdownServer(t, s)
	assertIdentical(t, tenantStore(t, dir, "alice"), "chaoshttp", wantRecs, wantReport)
	if nets[1].Faults() == 0 {
		t.Fatal("no network fault fired on the survivor's network; the schedule is vacuous")
	}
	t.Logf("%d + %d network faults absorbed", nets[0].Faults(), nets[1].Faults())
}

// TestShardWorkerUnauthorized locks the daemon's shard surface behind a
// token: a worker with the right token carries the campaign to the end,
// a worker with the wrong token is turned away terminally (no retry
// storm, no effect on the in-flight campaign), and a bare request with
// no token at all gets 401.
func TestShardWorkerUnauthorized(t *testing.T) {
	const n = 30
	camp := conformanceCampaign("confauth", n)
	solo := soloRun(t, camp)
	wantRecs := recordBytes(t, solo, "confauth")
	wantReport := reportText(t, solo, "confauth")

	dir := t.TempDir()
	s, err := server.New(server.Config{
		DataDir: dir, Boards: 4, MaxConcurrent: 1,
		ShardToken: "sekrit",
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/api/v1/campaigns", server.SubmitRequest{
		Tenant: "alice", Campaign: camp, Shards: 1, ExternalWorkers: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}

	// A tokenless request bounces at the door with 401 — before any
	// campaign lookup.
	resp, body = postJSON(t, ts.URL+"/api/v1/shards/alice/confauth/lease",
		shard.LeaseRequest{Worker: "stranger"})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless lease = %d (%s), want 401", resp.StatusCode, body)
	}

	// The impostor: wrong token, must exit with ErrUnauthorized instead
	// of retrying.
	bad, err := shard.NewWorker(shard.WorkerConfig{
		Name: "impostor", Boards: 1,
		Poll: 10 * time.Millisecond,
		Transport: &shard.HTTPTransport{
			Base: ts.URL, Tenant: "alice", Campaign: "confauth", Token: "wrong",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	badErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		badErr <- bad.Run(ctx)
	}()

	good, err := shard.NewWorker(shard.WorkerConfig{
		Name: "legit", Boards: 1,
		Poll: 10 * time.Millisecond,
		Transport: &shard.HTTPTransport{
			Base: ts.URL, Tenant: "alice", Campaign: "confauth", Token: "sekrit",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	goodErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		goodErr <- good.Run(ctx)
	}()

	if err := <-badErr; err != shard.ErrUnauthorized {
		t.Fatalf("impostor worker returned %v, want ErrUnauthorized", err)
	}
	if st := waitState(t, ts.URL, "alice", "confauth"); st.State != server.StateDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
	if err := <-goodErr; err != nil {
		t.Fatalf("authorized worker: %v", err)
	}
	shutdownServer(t, s)
	assertIdentical(t, tenantStore(t, dir, "alice"), "confauth", wantRecs, wantReport)
}
