package shard_test

// The report path end to end: a worker never sleeps a poll interval on
// the way to the campaign's end, reads nothing back from its shard
// database on a clean range, ships after a resume exactly the rows the
// runner skipped, and keeps a batch — delivery key and all — until the
// coordinator has acknowledged it.

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
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
// in a sleep, so both are gone within a second of the campaign's end —
// and neither, starting on a clean shard database, reads a row back from
// it to report.
func TestShardWorkersLeaveWithoutPolling(t *testing.T) {
	const n = 400
	camp := conformanceCampaign("nopoll", n)
	solo := soloRun(t, camp)
	coord, st := directCoordinator(t, camp, 2, 0)
	scanned := counter("goofi_shard_final_scan_rows_total")

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	workerDir := t.TempDir()
	exits := make(chan error, 2)
	for _, name := range []string{"w0", "w1"} {
		w, err := shard.NewWorker(shard.WorkerConfig{
			Name: name, Dir: filepath.Join(workerDir, name),
			Transport: shard.Direct{C: coord}, Poll: time.Hour,
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
	if d := counter("goofi_shard_final_scan_rows_total") - scanned; d != 0 {
		t.Fatalf("clean ranges read %v rows back from their shard databases, want 0", d)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, st, "nopoll", recordBytes(t, solo, "nopoll"), reportText(t, solo, "nopoll"))
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

// TestShardResumeShipsExactlySkipped kills a detail-mode worker mid-range
// while none of its reports get through, then restarts it on the same
// shard database. The second attempt must report the whole range: the
// experiments the first one logged from the store — read by primary key,
// step rows with their parent, and counted — and the rest from the run,
// every row exactly once.
func TestShardResumeShipsExactlySkipped(t *testing.T) {
	const n = 8
	camp := conformanceCampaign("resumeship", n)
	camp.LogMode = campaign.LogDetail
	camp.RandomWindow = [2]uint64{10, 400}
	solo := soloRun(t, camp)
	wantTrace := traceBytes(t, solo, "resumeship")
	coord, st := directCoordinator(t, camp, 1, 50*time.Millisecond)
	dir := filepath.Join(t.TempDir(), "w0")

	// First attempt: the network eats every report; the worker dies after
	// logging three experiments.
	killCtx, kill := context.WithCancel(context.Background())
	defer kill()
	var mu sync.Mutex
	logged := map[string]bool{} // end rows the first attempt logged
	first, err := shard.NewWorker(shard.WorkerConfig{
		Name: "w0", Dir: dir, Poll: 5 * time.Millisecond,
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

	// Second attempt, same name and directory, on a healthy network. Its
	// lease waits in the coordinator for the dead one's to expire.
	scanned := counter("goofi_shard_final_scan_rows_total")
	rec := &recordingTransport{Transport: shard.Direct{C: coord}}
	second, err := shard.NewWorker(shard.WorkerConfig{
		Name: "w0", Dir: dir, Transport: rec, Poll: 5 * time.Millisecond,
		OnRecord: func(rec *campaign.ExperimentRecord) {
			mu.Lock()
			defer mu.Unlock()
			if rec.Step < 0 && logged[rec.Name] {
				t.Errorf("%s ran again after the resume", rec.Name)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := second.Run(ctx); err != nil {
		t.Fatalf("resumed worker: %v", err)
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
		t.Fatalf("resumed worker reported %d end rows, want %d and the reference", len(sent), n)
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
	// ...and what was read back from the shard database is exactly what
	// the first attempt left there, step rows included.
	wantScanned := 0
	for name := range logged {
		trace, err := st.Trace(name)
		if err != nil {
			t.Fatal(err)
		}
		if steps[name] != len(trace) {
			t.Errorf("%s reported with %d step rows, the merged store holds %d", name, steps[name], len(trace))
		}
		wantScanned += 1 + len(trace)
	}
	if len(logged) < 4 || wantScanned <= len(logged) {
		t.Fatalf("first attempt left %d end rows and %d rows in all: the test is vacuous", len(logged), wantScanned)
	}
	if got := counter("goofi_shard_final_scan_rows_total") - scanned; got != float64(wantScanned) {
		t.Fatalf("resume read %v rows back, want the %d of the skipped experiments", got, wantScanned)
	}
	assertIdentical(t, st, "resumeship", recordBytes(t, solo, "resumeship"), reportText(t, solo, "resumeship"))
	assertTraceIdentical(t, st, "resumeship", wantTrace)
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
		Name: "w0", Dir: filepath.Join(t.TempDir(), "w0"), Transport: rec, Poll: 5 * time.Millisecond,
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
		Name: "w0", Dir: filepath.Join(t.TempDir(), "w0"),
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
