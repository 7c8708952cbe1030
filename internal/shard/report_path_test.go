package shard_test

// The report path end to end: a worker never sleeps a poll interval on
// the way to the campaign's end, writes no file, ships every row of a
// range exactly once however its predecessor died, keeps the reference
// run's rows for its later ranges, and keeps a batch — delivery key and
// all — until the coordinator has acknowledged it.

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
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
	"goofi/internal/telemetry"
)

// directCoordinator builds a coordinator for camp over a fresh merged
// store, for workers that reach it through shard.Direct.
func directCoordinator(t *testing.T, camp *campaign.Campaign, shards int, hb time.Duration,
	tune ...func(*shard.CoordinatorConfig)) (*shard.Coordinator, *campaign.Store) {
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
	cfg := shard.CoordinatorConfig{Store: st, Campaign: camp, Target: tsd, Shards: shards, HeartbeatEvery: hb}
	for _, fn := range tune {
		fn(&cfg)
	}
	coord, err := shard.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord, st
}

func counter(name string) float64 { return telemetry.Default.Snapshot()[name] }

// TestShardWorkersLeaveWithoutPolling runs two workers whose Poll is an
// hour. The one that finishes first waits in the coordinator's Lease, not
// in a sleep, so both are gone within a second of the campaign's end.
func TestShardWorkersLeaveWithoutPolling(t *testing.T) {
	const n = 400
	camp := conformanceCampaign("nopoll", n)
	solo := soloRun(t, camp)
	coord, st := directCoordinator(t, camp, 2, 0)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	exits := make(chan error, 2)
	for _, name := range []string{"w0", "w1"} {
		w, err := shard.NewWorker(shard.WorkerConfig{
			Name: name, Transport: shard.Direct{C: coord}, Poll: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { exits <- w.Run(ctx) }()
	}
	select {
	case <-coord.Done():
	case <-ctx.Done():
		t.Fatal("campaign did not complete")
	}
	late := time.After(time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-exits:
			if err != nil {
				t.Fatalf("worker: %v", err)
			}
		case <-late:
			t.Fatal("a worker was still around 1s after the campaign completed: it is sleeping its poll interval")
		}
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, st, "nopoll", recordBytes(t, solo, "nopoll"), reportText(t, solo, "nopoll"))
}

// TestShardWorkerWritesNothing: the coordinator's store is the campaign's
// only copy. An external worker leaves the directory it was given empty,
// and a job run by the daemon's in-process workers leaves no shards/ entry
// in the data directory.
func TestShardWorkerWritesNothing(t *testing.T) {
	const n = 30
	dataDir, workerDir := t.TempDir(), t.TempDir()
	s, err := server.New(server.Config{DataDir: dataDir, Boards: 2, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, req := range []server.SubmitRequest{
		{Tenant: "alice", Campaign: conformanceCampaign("nofile-ext", n), Shards: 2, ExternalWorkers: true},
		{Tenant: "alice", Campaign: conformanceCampaign("nofile-in", n), Shards: 2},
	} {
		name := req.Campaign.Name
		if resp, body := postJSON(t, ts.URL+"/api/v1/campaigns", req); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s = %d: %s", name, resp.StatusCode, body)
		}
		if req.ExternalWorkers {
			w, err := shard.NewWorker(shard.WorkerConfig{
				Name: "w0", Dir: workerDir, Poll: 5 * time.Millisecond,
				Transport: &shard.HTTPTransport{Base: ts.URL, Tenant: "alice", Campaign: name},
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			err = w.Run(ctx)
			cancel()
			if err != nil {
				t.Fatalf("worker: %v", err)
			}
		}
		if st := waitState(t, ts.URL, "alice", name); st.State != server.StateDone {
			t.Fatalf("%s: state = %s (err %q)", name, st.State, st.Error)
		}
	}
	shutdownServer(t, s)
	if left, err := os.ReadDir(workerDir); err != nil || len(left) != 0 {
		t.Fatalf("the worker left %d entries in its directory (%v), want none", len(left), err)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "shards")); !os.IsNotExist(err) {
		t.Fatalf("the data directory has a shards entry (stat: %v): in-process workers wrote files", err)
	}
}

// recordingTransport notes every report on its way to the coordinator.
type recordingTransport struct {
	shard.Transport
	// before, when set, runs ahead of each report and may answer it.
	before func(req shard.ReportRequest) (handled bool, err error)

	mu      sync.Mutex
	reports []shard.ReportRequest
}

func (r *recordingTransport) Report(ctx context.Context, req shard.ReportRequest) (*shard.ReportResponse, error) {
	r.mu.Lock()
	r.reports = append(r.reports, req)
	r.mu.Unlock()
	if r.before != nil {
		if handled, err := r.before(req); handled {
			return nil, err
		}
	}
	return r.Transport.Report(ctx, req)
}

var errNetDown = &shard.TransportError{Op: "report", Class: shard.ClassConn, Retryable: true,
	Err: errors.New("test: network down")}

// TestShardRestartedWorkerShipsExactlyOnce kills a detail-mode worker
// mid-range while none of its reports get through, then starts another
// under the same name. A worker keeps nothing, so the second one runs the
// whole requeued range — and must report every row of it exactly once,
// step rows with their parent, byte-identical to solo.
func TestShardRestartedWorkerShipsExactlyOnce(t *testing.T) {
	const n = 8
	camp := conformanceCampaign("restartship", n)
	camp.LogMode = campaign.LogDetail
	camp.RandomWindow = [2]uint64{10, 400}
	solo := soloRun(t, camp)
	wantTrace := traceBytes(t, solo, "restartship")
	coord, st := directCoordinator(t, camp, 1, 50*time.Millisecond)

	// First attempt: the network eats every report; the worker dies after
	// logging three experiments.
	killCtx, kill := context.WithCancel(context.Background())
	defer kill()
	var mu sync.Mutex
	logged := map[string]bool{} // end rows the first attempt logged
	first, err := shard.NewWorker(shard.WorkerConfig{
		Name: "w0", Poll: 5 * time.Millisecond,
		Transport: &recordingTransport{Transport: shard.Direct{C: coord},
			before: func(shard.ReportRequest) (bool, error) { return true, errNetDown }},
		OnRecord: func(rec *campaign.ExperimentRecord) {
			if rec.Step >= 0 {
				return
			}
			mu.Lock()
			logged[rec.Name] = true
			die := len(logged) >= 4 // the reference and three experiments
			mu.Unlock()
			if die {
				kill()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Run(killCtx); err == nil {
		t.Fatal("the killed worker finished its range")
	}
	if merged, _ := coord.Progress(); merged != 0 {
		t.Fatalf("%d experiments merged through a network that was down", merged)
	}

	// Second attempt, same name, on a healthy network. Its lease waits in
	// the coordinator for the dead one's to expire.
	rec := &recordingTransport{Transport: shard.Direct{C: coord}}
	second, err := shard.NewWorker(shard.WorkerConfig{Name: "w0", Transport: rec, Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := second.Run(ctx); err != nil {
		t.Fatalf("restarted worker: %v", err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}

	// Every row of the campaign went out exactly once...
	sent := map[string]int{}   // end rows by name
	steps := map[string]int{}  // step rows by parent
	stepAt := map[string]int{} // step rows by name
	for _, req := range rec.reports {
		for i := range req.Rows {
			if row := &req.Rows[i]; row.Step() < 0 {
				sent[row.Name()]++
			} else {
				steps[row.Parent()]++
				stepAt[row.Name()]++
			}
		}
	}
	if len(sent) != n+1 {
		t.Fatalf("restarted worker reported %d end rows, want %d and the reference", len(sent), n)
	}
	for name, times := range sent {
		if times != 1 {
			t.Errorf("end row %s reported %d times", name, times)
		}
	}
	for name, times := range stepAt {
		if times != 1 {
			t.Errorf("step row %s reported %d times", name, times)
		}
	}
	// ...the experiments the first attempt had logged with all their step
	// rows, like the rest.
	if len(logged) < 4 {
		t.Fatalf("first attempt logged %d end rows: the test is vacuous", len(logged))
	}
	for name := range logged {
		trace, err := st.Trace(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(trace) == 0 || steps[name] != len(trace) {
			t.Errorf("%s reported with %d step rows, the merged store holds %d", name, steps[name], len(trace))
		}
	}
	assertIdentical(t, st, "restartship", recordBytes(t, solo, "restartship"), reportText(t, solo, "restartship"))
	assertTraceIdentical(t, st, "restartship", wantTrace)
}

// cutAfterLease partitions the network the moment a range is granted.
type cutAfterLease struct {
	shard.Transport
	net  *chaos.Net
	once sync.Once
}

func (c *cutAfterLease) Lease(ctx context.Context, req shard.LeaseRequest) (*shard.LeaseResponse, error) {
	resp, err := c.Transport.Lease(ctx, req)
	if err == nil && resp.Status == shard.LeaseRange {
		c.once.Do(c.net.PartitionFull)
	}
	return resp, err
}

// TestShardReferenceSurvivesAbandonedLease cuts one worker off from its
// coordinator — reports and heartbeats alike — from the grant of its first
// lease until that lease has expired. Nothing of it was merged, so the
// worker runs the requeued range again, reference run included — a worker
// keeps nothing from one lease to the next — and the coordinator, which
// never saw the reference row, must get it from that second run.
func TestShardReferenceSurvivesAbandonedLease(t *testing.T) {
	const n = 40
	camp := conformanceCampaign("refkept", n)
	refName := campaign.ReferenceName("refkept")
	solo := soloRun(t, camp)
	coord, st := directCoordinator(t, camp, 1, 20*time.Millisecond)
	net := chaos.NewNet(chaos.NetConfig{Seed: 1})

	var references atomic.Int32
	w, err := shard.NewWorker(shard.WorkerConfig{
		Name: "w0", Poll: 5 * time.Millisecond,
		Transport: &cutAfterLease{Transport: net.Transport(shard.Direct{C: coord}), net: net},
		OnRecord: func(rec *campaign.ExperimentRecord) {
			if rec.Name == refName {
				references.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	exit := make(chan error, 1)
	go func() { exit <- w.Run(ctx) }()
	for expired := false; !expired; {
		if ctx.Err() != nil {
			t.Fatal("the cut-off worker's lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
		for _, ws := range coord.Fleet() {
			expired = expired || ws.Failures > 0
		}
	}
	if merged, _ := coord.Progress(); merged != 0 || coord.Complete() {
		t.Fatalf("%d experiments merged through a network that was down", merged)
	}
	net.Heal()
	if err := <-exit; err != nil {
		t.Fatalf("worker: %v (a worker that lost the reference row waits for a campaign that cannot complete)", err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if got := references.Load(); got != 2 {
		t.Fatalf("the reference run was logged %d times, want twice: once a lease", got)
	}
	if _, err := st.GetExperiment(refName); err != nil {
		t.Fatalf("the coordinator's store has no reference row: %v", err)
	}
	assertIdentical(t, st, "refkept", recordBytes(t, solo, "refkept"), reportText(t, solo, "refkept"))
}

// TestNetChaosUnackedBatchKeepsDeliveryKey loses the acknowledgement of
// the first streamed report to an asymmetric partition: the coordinator
// merged the batch, the worker never heard. The worker must send that
// batch again as it was — same delivery key, same rows — so the
// coordinator answers from its delivery cache, and nothing is merged
// twice or dropped.
func TestNetChaosUnackedBatchKeepsDeliveryKey(t *testing.T) {
	const n = 2000
	camp := conformanceCampaign("keepkey", n)
	solo := soloRun(t, camp)
	coord, st := directCoordinator(t, camp, 1, 50*time.Millisecond)
	net := chaos.NewNet(chaos.NetConfig{Seed: 1})
	deduped := counter("goofi_shard_report_deliveries_deduped_total")

	rec := &recordingTransport{Transport: net.Transport(shard.Direct{C: coord})}
	var once sync.Once
	rec.before = func(req shard.ReportRequest) (bool, error) {
		cut := false
		once.Do(func() { cut = true })
		if !cut {
			return false, nil
		}
		net.PartitionAsym()
		_, err := rec.Transport.Report(context.Background(), req)
		net.Heal()
		return true, err
	}
	w, err := shard.NewWorker(shard.WorkerConfig{
		Name: "w0", Transport: rec, Poll: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rec.reports) < 3 {
		t.Fatalf("only %d reports: nothing was streamed, the test is vacuous", len(rec.reports))
	}
	lost, again := rec.reports[0], rec.reports[1]
	if lost.Final || len(lost.Rows) == 0 {
		t.Fatalf("the lost report was final=%v with %d rows, want a streamed batch", lost.Final, len(lost.Rows))
	}
	if again.Delivery != lost.Delivery || len(again.Rows) != len(lost.Rows) || again.Rows[0].Name() != lost.Rows[0].Name() {
		t.Fatalf("after a lost ack the worker sent delivery %q (%d rows), want %q (%d rows) again",
			again.Delivery, len(again.Rows), lost.Delivery, len(lost.Rows))
	}
	for _, req := range rec.reports[2:] {
		if req.Delivery == lost.Delivery {
			t.Fatalf("delivery %q sent a third time", lost.Delivery)
		}
	}
	if d := counter("goofi_shard_report_deliveries_deduped_total") - deduped; d != 1 {
		t.Fatalf("coordinator answered %v deliveries from its cache, want the 1 retried", d)
	}
	assertIdentical(t, st, "keepkey", recordBytes(t, solo, "keepkey"), reportText(t, solo, "keepkey"))
}

// TestShardProtocolMismatchOverHTTP knocks on the daemon's shard surface
// the way a build from before protocol version 2 would: its hello is
// refused with 426 and its JSON report with 415, each with a sentence
// naming the versions; garbage in a frame's clothes is a 400. A current
// worker is not disturbed.
func TestShardProtocolMismatchOverHTTP(t *testing.T) {
	const n = 30
	camp := conformanceCampaign("confproto", n)
	solo := soloRun(t, camp)
	dir := t.TempDir()
	s, err := server.New(server.Config{DataDir: dir, Boards: 2, MaxConcurrent: 1})
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
	base := ts.URL + "/api/v1/shards/alice/confproto/"
	// Until the coordinator is up the surface answers 409.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = postJSON(t, base+"hello", map[string]string{"worker": "old"})
		if resp.StatusCode != http.StatusConflict || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp.StatusCode != http.StatusUpgradeRequired || !bytes.Contains(body, []byte("version 0")) {
		t.Fatalf("versionless hello = %d (%s), want 426 naming the versions", resp.StatusCode, body)
	}
	resp, body = postJSON(t, base+"report", map[string]any{"worker": "old", "leaseId": "l0001", "records": []int{}})
	if resp.StatusCode != http.StatusUnsupportedMediaType || !bytes.Contains(body, []byte("protocol version")) {
		t.Fatalf("JSON report = %d (%s), want 415 naming the protocol version", resp.StatusCode, body)
	}
	hr, err := http.Post(base+"report", shard.FrameContentType, bytes.NewReader([]byte("not a frame at all")))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage frame = %d, want 400", hr.StatusCode)
	}

	w, err := shard.NewWorker(shard.WorkerConfig{
		Name:      "w0",
		Transport: &shard.HTTPTransport{Base: ts.URL, Tenant: "alice", Campaign: "confproto"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if st := waitState(t, ts.URL, "alice", "confproto"); st.State != server.StateDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
	shutdownServer(t, s)
	assertIdentical(t, tenantStore(t, dir, "alice"), "confproto",
		recordBytes(t, solo, "confproto"), reportText(t, solo, "confproto"))
}
