package shard_test

// The sharding correctness pin: a campaign executed as N shards — by the
// daemon's in-process workers, by external workers over HTTP, with a
// worker killed mid-range, and across a coordinator kill/restart — must
// produce LoggedSystemState records and an analysis report byte-identical
// to a solo `goofi run` of the same definition. These tests are part of
// tier 1 and run under -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/scifi"
	"goofi/internal/server"
	"goofi/internal/shard"
	"goofi/internal/sqldb"
	"goofi/internal/swifi"
	"goofi/internal/telemetry"
	"goofi/internal/thor"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// rowHook calls at after every experiment end row the sink behind it has
// taken (the reference's not counted) with how many it has taken: the
// hand-over stage logs each row in plan order just before it resolves it,
// so a Stop from at(k) ends the run with rows 0..k-1.
type rowHook struct {
	core.CheckpointSink
	rows int
	at   func(k int)
}

func (h *rowHook) LogExperiment(rec *campaign.ExperimentRecord) error {
	if err := h.CheckpointSink.LogExperiment(rec); err != nil {
		return err
	}
	if rec.Step < 0 && !rec.IsReference() {
		h.rows++
		h.at(h.rows)
	}
	return nil
}

// conformanceCampaign is the quickstart campaign scaled to n
// experiments — the same definition the server differential tests use.
func conformanceCampaign(name string, n int) *campaign.Campaign {
	return &campaign.Campaign{
		Name:           name,
		TargetName:     "thor-board",
		ChainName:      "internal",
		Locations:      []string{"cpu"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient, Multiplicity: 1},
		Trigger:        trigger.Spec{Kind: "cycle", Occurrence: 1},
		RandomWindow:   [2]uint64{10, 1600},
		NumExperiments: n,
		Seed:           2026,
		Termination:    campaign.Termination{TimeoutCycles: 100_000},
		Workload:       workload.All()["sort16"],
		LogMode:        campaign.LogNormal,
	}
}

// soloStore opens a fresh file-backed store holding camp's definition.
func soloStore(t *testing.T, camp *campaign.Campaign) *campaign.Store {
	t.Helper()
	db, err := sqldb.OpenAt(filepath.Join(t.TempDir(), "solo.db"), sqldb.SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	st, err := campaign.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutTargetSystem(scifi.TargetSystemData(camp.TargetName)); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign(camp); err != nil {
		t.Fatal(err)
	}
	return st
}

// soloRunInto executes camp on st exactly the way `goofi run` (or, with
// core.WithResume among opts, `goofi resume`) does.
func soloRunInto(t *testing.T, st *campaign.Store, camp *campaign.Campaign, opts ...core.RunnerOption) *core.Summary {
	t.Helper()
	factory := func() core.TargetSystem { return scifi.New(thor.DefaultConfig()) }
	sink := campaign.NewBatchingSink(st, 0)
	r, err := core.NewRunner(factory(), core.SCIFI, camp, scifi.TargetSystemData(camp.TargetName),
		append([]core.RunnerOption{
			core.WithSink(sink),
			core.WithBoards(2, factory),
			core.WithCheckpoints(core.DefaultCheckpointInterval),
		}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return sum
}

// soloRun executes camp exactly the way `goofi run` does and returns the
// store holding the ground-truth results.
func soloRun(t *testing.T, camp *campaign.Campaign, opts ...core.RunnerOption) *campaign.Store {
	t.Helper()
	st := soloStore(t, camp)
	soloRunInto(t, st, camp, opts...)
	if err := st.DeleteCheckpoint(camp.Name); err != nil {
		t.Fatal(err)
	}
	return st
}

// recordBytes renders every end-of-experiment record to canonical JSON
// in sequence order.
func recordBytes(t *testing.T, st *campaign.Store, name string) []string {
	t.Helper()
	recs, err := st.Experiments(name)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(recs))
	for i, rec := range recs {
		blob, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(blob)
	}
	return out
}

func reportText(t *testing.T, st *campaign.Store, name string) string {
	t.Helper()
	rep, err := analysis.AnalyzeAndStore(st, name)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Render()
}

// assertIdentical fails unless st's records and report match the solo
// ground truth byte for byte.
func assertIdentical(t *testing.T, st *campaign.Store, name string, wantRecs []string, wantReport string) {
	t.Helper()
	got := recordBytes(t, st, name)
	if len(got) != len(wantRecs) {
		t.Fatalf("sharded run has %d records, solo run has %d", len(got), len(wantRecs))
	}
	for i := range got {
		if got[i] != wantRecs[i] {
			t.Fatalf("record %d differs\n sharded: %s\n    solo: %s", i, got[i], wantRecs[i])
		}
	}
	if gotRep := reportText(t, st, name); gotRep != wantReport {
		t.Fatalf("analysis report differs\n sharded:\n%s\n solo:\n%s", gotRep, wantReport)
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// waitState polls a job until it reaches a terminal state.
func waitState(t *testing.T, base, tenant, name string) server.JobStatus {
	t.Helper()
	url := fmt.Sprintf("%s/api/v1/campaigns/%s/%s", base, tenant, name)
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var st server.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case server.StateDone, server.StateFailed, server.StateCancelled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s/%s stuck in state %s", tenant, name, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tenantStore opens a tenant database read-side after the daemon shut
// down, for the byte comparison.
func tenantStore(t *testing.T, dataDir, tenant string) *campaign.Store {
	t.Helper()
	db, err := sqldb.OpenAt(filepath.Join(dataDir, tenant+".db"), sqldb.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	st, err := campaign.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestShardConformanceCounts is the table-driven core of the suite:
// shards ∈ {1, 2, 4} through the daemon's sharded path (in-process
// workers over the Direct transport) against the solo ground truth, and a
// swifi campaign whose image size travels with the submission.
func TestShardConformanceCounts(t *testing.T) {
	const n = 40
	camp := conformanceCampaign("conf", n)
	solo := soloRun(t, camp)
	wantRecs := recordBytes(t, solo, "conf")
	wantReport := reportText(t, solo, "conf")

	// daemonRun submits req to a fresh daemon and returns the tenant store
	// it left behind.
	daemonRun := func(t *testing.T, req server.SubmitRequest) *campaign.Store {
		dir := t.TempDir()
		s, err := server.New(server.Config{DataDir: dir, Boards: 4, MaxConcurrent: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		resp, body := postJSON(t, ts.URL+"/api/v1/campaigns", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d: %s", resp.StatusCode, body)
		}
		if st := waitState(t, ts.URL, req.Tenant, req.Campaign.Name); st.State != server.StateDone {
			t.Fatalf("state = %s (err %q)", st.State, st.Error)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		return tenantStore(t, dir, req.Tenant)
	}

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			st := daemonRun(t, server.SubmitRequest{Tenant: "alice", Campaign: camp, Shards: shards})
			assertIdentical(t, st, "conf", wantRecs, wantReport)
		})
	}

	// The image size reaches the workers in the target parameters, as it
	// reaches the solo executor: the ground truth is the same submission
	// run solo.
	t.Run("swifi-image-512", func(t *testing.T) {
		sw := conformanceCampaign("confswifi", n)
		sw.TargetName, sw.ChainName, sw.Locations = "thor-swifi", swifi.MemoryChainName, []string{"mem"}
		req := server.SubmitRequest{Tenant: "alice", Campaign: sw}
		req.TargetKind, req.TargetParams = "swifi", map[string]string{"image-bytes": "512"}
		solo := daemonRun(t, req)
		tsd, err := solo.GetTargetSystem("thor-swifi")
		if err != nil {
			t.Fatal(err)
		}
		if bits := tsd.Chains[0].Length; bits != 512*8 {
			t.Fatalf("the submission's memory chain is %d bits, want those of a 512-byte image", bits)
		}
		req.Shards = 2
		assertIdentical(t, daemonRun(t, req), "confswifi",
			recordBytes(t, solo, "confswifi"), reportText(t, solo, "confswifi"))
	})
}

// prunedTotal reads the process-wide count of experiments logged from
// the def-use table instead of a board.
func prunedTotal() float64 {
	snap := telemetry.Default.Snapshot()
	return snap[`goofi_experiments_pruned_total{class="latent"}`] +
		snap[`goofi_experiments_pruned_total{class="overwritten"}`]
}

// TestShardConformancePruning is the execution-mode half of the pruning
// differential. The oracle is a solo run with forwarding off — nothing
// recorded, nothing pruned, every experiment emulated. Against it: the
// pruning solo run; a run stopped mid-campaign and resumed, whose resumed
// half re-runs the reference and prunes exactly what a fresh run of the
// same range does; and two shards leased one after the other by a single
// worker, whose second lease runs the reference again, prunes from the set
// it records, and sends a reference row the coordinator drops.
func TestShardConformancePruning(t *testing.T) {
	const n = 120
	camp := conformanceCampaign("confprune", n)
	oracle := soloRun(t, camp, core.WithForwarding(core.ForwardConfig{Disabled: true}))
	wantRecs := recordBytes(t, oracle, "confprune")
	wantReport := reportText(t, oracle, "confprune")

	t.Run("solo", func(t *testing.T) {
		st := soloStore(t, camp)
		sum := soloRunInto(t, st, camp)
		if sum.Pruned.Latent == 0 || sum.Pruned.Overwritten == 0 {
			t.Fatalf("pruned %+v: want both classes, or the table proves nothing", sum.Pruned)
		}
		assertIdentical(t, st, "confprune", wantRecs, wantReport)
	})

	t.Run("resumed", func(t *testing.T) {
		st := soloStore(t, camp)
		factory := func() core.TargetSystem { return scifi.New(thor.DefaultConfig()) }
		sink := campaign.NewBatchingSink(st, 0)
		var r *core.Runner
		half := &rowHook{CheckpointSink: sink, at: func(k int) {
			if k == n/2 {
				r.Stop()
			}
		}}
		r, err := core.NewRunner(factory(), core.SCIFI, camp, scifi.TargetSystemData(camp.TargetName),
			core.WithSink(half), core.WithBoards(1, factory), core.WithCheckpoints(4))
		if err != nil {
			t.Fatal(err)
		}
		first, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if first.Experiments != n/2 || first.Pruned.Total() == 0 {
			t.Fatalf("first half: %d experiments, pruned %+v", first.Experiments, first.Pruned)
		}
		cp, err := st.RecoverCursor("confprune")
		if err != nil {
			t.Fatal(err)
		}
		rest := soloRunInto(t, st, camp, core.WithResume(cp))
		fresh := soloRunInto(t, soloStore(t, camp), camp, core.WithShardRange(n/2, n))
		if rest.Experiments != n-n/2 || rest.Pruned.Total() == 0 || rest.Pruned != fresh.Pruned {
			t.Fatalf("resumed half: %d experiments, pruned %+v; a fresh run of the range pruned %+v",
				rest.Experiments, rest.Pruned, fresh.Pruned)
		}
		assertIdentical(t, st, "confprune", wantRecs, wantReport)
	})

	t.Run("one-worker-two-leases", func(t *testing.T) {
		dir := t.TempDir()
		s, err := server.New(server.Config{DataDir: dir, Boards: 2, MaxConcurrent: 1})
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
		// The worker's hook sees every row it logs, pruned ones included:
		// the first row from the other half of the plan marks the start
		// of its second lease.
		var mu sync.Mutex
		firstHalf, leases, references := false, 0, 0
		var atSecondLease float64
		w, err := shard.NewWorker(shard.WorkerConfig{
			Name: "w0", Boards: 1,
			Transport: &shard.HTTPTransport{Base: ts.URL, Tenant: "alice", Campaign: "confprune"},
			Poll:      10 * time.Millisecond,
			OnRecord: func(rec *campaign.ExperimentRecord) {
				mu.Lock()
				defer mu.Unlock()
				if rec.Data.Seq < 0 {
					references++
					return
				}
				if half := rec.Data.Seq < n/2; leases == 0 || half != firstHalf {
					if leases++; leases == 2 {
						atSecondLease = prunedTotal()
					}
					firstHalf = half
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		if err := w.Run(ctx); err != nil {
			t.Fatalf("worker: %v", err)
		}
		if st := waitState(t, ts.URL, "alice", "confprune"); st.State != server.StateDone {
			t.Fatalf("state = %s (err %q)", st.State, st.Error)
		}
		shutdownServer(t, s)
		mu.Lock()
		defer mu.Unlock()
		// Each lease runs the reference and reports its row; the
		// coordinator keeps the first and drops the second.
		if leases != 2 || references != 2 {
			t.Fatalf("worker logged rows of %d leases and %d reference runs, want 2 and 2", leases, references)
		}
		if got := prunedTotal() - atSecondLease; got <= 0 {
			t.Errorf("the second lease pruned %v experiments: its reference run recorded no def-use table", got)
		}
		assertIdentical(t, tenantStore(t, dir, "alice"), "confprune", wantRecs, wantReport)
	})
}

// traceBytes renders every detail-mode trace row, grouped under its
// parent in sequence order, to canonical JSON.
func traceBytes(t *testing.T, st *campaign.Store, name string) []string {
	t.Helper()
	recs, err := st.Experiments(name)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, rec := range recs {
		trace, err := st.Trace(rec.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range trace {
			blob, err := json.Marshal(row)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(blob))
		}
	}
	return out
}

// TestShardConformanceDetailTrace shards a detail-mode campaign, whose
// per-instruction trace rows must ride with their parent end record
// through streamed and final reports alike, and checks the full trace —
// not just the end records — against the solo run byte for byte.
func TestShardConformanceDetailTrace(t *testing.T) {
	const n = 8
	camp := conformanceCampaign("confdet", n)
	camp.LogMode = campaign.LogDetail
	camp.RandomWindow = [2]uint64{10, 400}
	solo := soloRun(t, camp)
	wantRecs := recordBytes(t, solo, "confdet")
	wantReport := reportText(t, solo, "confdet")
	wantTrace := traceBytes(t, solo, "confdet")
	if len(wantTrace) == 0 {
		t.Fatal("detail campaign produced no trace rows; the test is vacuous")
	}

	dir := t.TempDir()
	// The default heartbeat: mid-range streaming is driven by the
	// reportBatch kick (every experiment's trace group is far larger than
	// one batch), not by the ticker, so no tight cadence is needed.
	s, err := server.New(server.Config{DataDir: dir, Boards: 4, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/api/v1/campaigns", server.SubmitRequest{
		Tenant: "alice", Campaign: camp, Shards: 2,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	if st := waitState(t, ts.URL, "alice", "confdet"); st.State != server.StateDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st := tenantStore(t, dir, "alice")
	assertIdentical(t, st, "confdet", wantRecs, wantReport)
	assertTraceIdentical(t, st, "confdet", wantTrace)
}

// assertTraceIdentical fails unless st's detail-mode trace rows match the
// solo ground truth byte for byte.
func assertTraceIdentical(t *testing.T, st *campaign.Store, name string, wantTrace []string) {
	t.Helper()
	gotTrace := traceBytes(t, st, name)
	if len(gotTrace) != len(wantTrace) {
		t.Fatalf("sharded run has %d trace rows, solo run has %d", len(gotTrace), len(wantTrace))
	}
	for i := range gotTrace {
		if gotTrace[i] != wantTrace[i] {
			t.Fatalf("trace row %d differs\n sharded: %s\n    solo: %s", i, gotTrace[i], wantTrace[i])
		}
	}
}

// TestShardConformanceWorkerKilled runs two external workers over the
// real HTTP transport and kills one mid-range; the survivor picks up the
// requeued lease and the merged result still matches the solo run byte
// for byte.
func TestShardConformanceWorkerKilled(t *testing.T) {
	const n = 60
	camp := conformanceCampaign("confkill", n)
	solo := soloRun(t, camp)
	wantRecs := recordBytes(t, solo, "confkill")
	wantReport := reportText(t, solo, "confkill")

	dir := t.TempDir()
	s, err := server.New(server.Config{
		DataDir: dir, Boards: 4, MaxConcurrent: 1,
		// A fast heartbeat so the killed worker's lease expires quickly —
		// but not so fast that scheduler jitter on a loaded single-CPU
		// box expires healthy leases.
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

	transport := func() *shard.HTTPTransport {
		return &shard.HTTPTransport{Base: ts.URL, Tenant: "alice", Campaign: "confkill"}
	}
	var wg sync.WaitGroup
	// Worker zero is killed (context cut, no teardown, no report) after
	// logging a handful of records of its first range.
	killCtx, kill := context.WithCancel(context.Background())
	defer kill()
	var killOnce sync.Once
	var logged int
	var loggedMu sync.Mutex
	w0, err := shard.NewWorker(shard.WorkerConfig{
		Name: "w0", Boards: 1,
		Transport: transport(), Poll: 10 * time.Millisecond,
		OnRecord: func(*campaign.ExperimentRecord) {
			loggedMu.Lock()
			logged++
			die := logged >= 4
			loggedMu.Unlock()
			if die {
				killOnce.Do(kill)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w0.Run(killCtx) // dies by design
	}()

	w1, err := shard.NewWorker(shard.WorkerConfig{
		Name: "w1", Boards: 1,
		Transport: transport(), Poll: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	werr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		werr <- w1.Run(ctx)
	}()

	if st := waitState(t, ts.URL, "alice", "confkill"); st.State != server.StateDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
	wg.Wait()
	if err := <-werr; err != nil {
		t.Fatalf("surviving worker: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, tenantStore(t, dir, "alice"), "confkill", wantRecs, wantReport)
}

// TestShardConformanceCoordinatorRestart kills the daemon mid-sharded-
// campaign with no teardown at all, then boots a fresh one on the same
// data directory: recovery must resume the merge from the durable rows
// (not redo it) and the final result must still match the solo run.
func TestShardConformanceCoordinatorRestart(t *testing.T) {
	// A report carries at most 4*64 rows, so the reports that get through
	// with an experiment's row before the kill — one per worker at most —
	// leave work to recover.
	const n = 1200
	camp := conformanceCampaign("confboot", n)
	solo := soloRun(t, camp)
	wantRecs := recordBytes(t, solo, "confboot")
	wantReport := reportText(t, solo, "confboot")

	dir := t.TempDir()
	cfg := server.Config{DataDir: dir, Boards: 4, MaxConcurrent: 1}
	s1, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	resp, body := postJSON(t, ts1.URL+"/api/v1/campaigns", server.SubmitRequest{
		Tenant: "alice", Campaign: camp, Shards: 2, ExternalWorkers: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	// The kill lands on a state the test holds open: once a report has
	// merged, every later one waits at the worker until the daemon is dead.
	gate := &heldReports{merged: make(chan struct{}), killed: make(chan struct{})}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w, err := shard.NewWorker(shard.WorkerConfig{
			Name: fmt.Sprintf("w%d", i), Boards: 1, Poll: 10 * time.Millisecond,
			Transport: &heldTransport{
				Transport: &shard.HTTPTransport{Base: ts1.URL, Tenant: "alice", Campaign: "confboot"},
				gate:      gate,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx) // dies with the daemon by design
		}()
	}
	select {
	case <-gate.merged:
	case <-time.After(60 * time.Second):
		t.Fatal("no report merged")
	}
	s1.Kill()
	close(gate.killed)
	cancel()
	wg.Wait()
	ts1.Close()

	s2, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	ctx, cancel = context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	werrs := make([]error, 2)
	for i := range werrs {
		w, err := shard.NewWorker(shard.WorkerConfig{
			Name: fmt.Sprintf("r%d", i), Boards: 1, Poll: 10 * time.Millisecond,
			Transport: &shard.HTTPTransport{Base: ts2.URL, Tenant: "alice", Campaign: "confboot"},
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			werrs[i] = w.Run(ctx)
		}()
	}
	st := waitState(t, ts2.URL, "alice", "confboot")
	if st.State != server.StateDone {
		t.Fatalf("recovered state = %s (err %q)", st.State, st.Error)
	}
	wg.Wait()
	if err := errors.Join(werrs...); err != nil {
		t.Fatalf("worker after the restart: %v", err)
	}
	// The restarted coordinator resumed rather than restarted: its summary
	// counts only the post-boot merge, strictly below the campaign total.
	if st.Summary == nil || st.Summary.Experiments <= 0 || st.Summary.Experiments >= n {
		t.Fatalf("recovered summary %+v, want between 0 and %d experiments", st.Summary, n)
	}
	t.Logf("the restarted coordinator merged %d of %d experiments", st.Summary.Experiments, n)
	shutdownServer(t, s2)
	assertIdentical(t, tenantStore(t, dir, "alice"), "confboot", wantRecs, wantReport)
}

// heldReports is the gate of a fleet's reports: they pass until one has
// merged an experiment's row, and merged is closed; every report after
// that waits until killed is closed, and fails.
type heldReports struct {
	once           sync.Once
	merged, killed chan struct{}
}

// heldTransport is a worker transport whose reports pass gate.
type heldTransport struct {
	shard.Transport
	gate *heldReports
}

func (h *heldTransport) Report(ctx context.Context, req shard.ReportRequest) (*shard.ReportResponse, error) {
	select {
	case <-h.gate.merged:
		select {
		case <-h.gate.killed:
		case <-ctx.Done():
		}
		return nil, errors.New("the coordinator was killed")
	default:
	}
	resp, err := h.Transport.Report(ctx, req)
	if err == nil && resp.Accepted > 0 {
		for i := range req.Rows {
			if row := &req.Rows[i]; row.Step() < 0 && row.Name() != campaign.ReferenceName(row.Campaign()) {
				h.gate.once.Do(func() { close(h.gate.merged) })
				break
			}
		}
	}
	return resp, err
}

// shutdownServer drains a server with a bounded grace period.
func shutdownServer(t *testing.T, s *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
