package server

// The job state machine has one implementation (execute) and two sources of
// rows behind it. Every scenario here runs over both, so a transition that
// works for a solo job and not for a sharded one — or the other way round —
// is a failing cell, not an untested path.

import (
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"goofi/internal/shard"
	"goofi/internal/sqldb"
	"goofi/internal/telemetry"
)

// rowSource is one way a job's rows are produced.
type rowSource struct {
	name   string
	shards int  // SubmitRequest.Shards: 0 is the daemon's own runner
	pauses bool // the source has a runner to pause
}

var rowSources = []rowSource{
	{name: "solo", pauses: true},
	{name: "sharded", shards: 2},
}

// A job that a scenario stops runs stopN experiments, far more than it gets
// through before the stop lands however fast the host is.
const stopN = 100_000

// restartSize sizes the job that has to finish after a restart: about half
// a second of solo work on this host in this build, timed on a short run —
// long enough for the stop to land mid-run, no longer than that needs under
// the race detector.
func restartSize(t *testing.T) int {
	const probe = 1000
	start := time.Now()
	soloRun(t, testCampaign("probe", probe), 2)
	n := int(probe * float64(500*time.Millisecond) / float64(time.Since(start)))
	return min(max(n, probe), 20*probe)
}

func (src rowSource) submit(t *testing.T, base, name string, n int) string {
	t.Helper()
	req := SubmitRequest{Tenant: "alice", Campaign: testCampaign(name, n), Boards: 2, Shards: src.shards}
	if src.shards == 0 {
		req.Checkpoint = 8 // the solo runner's cursor cadence; a sharded job has none
	}
	resp, body := postJSON(t, base+"/api/v1/campaigns", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	return base + "/api/v1/campaigns/alice/" + name
}

// waitMidRun returns once the job has stored some of its plan, and fails
// the test if it got to the end instead.
func waitMidRun(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st JobStatus
		getJSON(t, url, &st)
		if st.Progress != nil && st.Progress.Done > 0 && st.Progress.Done < st.Progress.Total {
			return
		}
		if st.State == StateDone || st.State == StateFailed || time.Now().After(deadline) {
			t.Fatalf("campaign is %s (err %q), not mid-run", st.State, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func progressOf(t *testing.T, base, name string) telemetry.ProgressSnapshot {
	t.Helper()
	var snap telemetry.ProgressSnapshot
	if code := getJSON(t, base+"/progress?tenant=alice&campaign="+name, &snap); code != http.StatusOK {
		t.Fatalf("/progress = %d", code)
	}
	return snap
}

func TestJobLifecycle(t *testing.T) {
	restartN := restartSize(t)
	solo := soloRun(t, testCampaign("life", restartN), 2)
	wantRecs, wantReport := recordBytes(t, solo, "life"), reportText(t, solo, "life")

	// restart stops a daemon mid-run, boots another on the same data
	// directory, and wants the job resumed and finished as if never stopped.
	restart := func(stop func(testing.TB, *Server)) func(*testing.T, rowSource) {
		return func(t *testing.T, src rowSource) {
			cfg := Config{DataDir: t.TempDir(), Boards: 2, MaxConcurrent: 1}
			s1, ts1 := newTestServer(t, cfg)
			waitMidRun(t, src.submit(t, ts1.URL, "life", restartN))
			stop(t, s1)
			ts1.Close()

			s2, ts2 := newTestServer(t, cfg)
			defer shutdownServer(t, s2)
			st := pollState(t, ts2.URL, "alice", "life", StateDone)
			if st.State != StateDone {
				t.Fatalf("recovered state = %s (err %q)", st.State, st.Error)
			}
			assertIdentical(t, s2, "alice", "life", wantRecs, wantReport)
			if st.Summary == nil || st.Summary.Experiments >= restartN {
				t.Errorf("recovered summary = %+v, want fewer than %d experiments", st.Summary, restartN)
			}
			if snap := progressOf(t, ts2.URL, "life"); snap.Phase != telemetry.PhaseDone || snap.Done != int64(restartN) {
				t.Errorf("progress after the resumed run: phase %q, done %d", snap.Phase, snap.Done)
			}
		}
	}

	scenarios := []struct {
		name string
		run  func(*testing.T, rowSource)
	}{
		{"cancel-mid-run", func(t *testing.T, src rowSource) {
			s, ts := newTestServer(t, Config{Boards: 2, MaxConcurrent: 1})
			defer shutdownServer(t, s)
			url := src.submit(t, ts.URL, "long", stopN)
			waitMidRun(t, url)
			if resp, body := postJSON(t, url+"/cancel", nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("cancel = %d: %s", resp.StatusCode, body)
			}
			st := pollState(t, ts.URL, "alice", "long", StateCancelled)
			if st.State != StateCancelled {
				t.Fatalf("state after cancel = %s (err %q), want cancelled", st.State, st.Error)
			}
			if st.Summary == nil || st.Summary.Experiments == 0 || st.Summary.Experiments >= stopN {
				t.Fatalf("cancelled summary = %+v, want partial progress", st.Summary)
			}
			if ds, _ := s.durableState("alice", "long"); ds != StateCancelled {
				t.Errorf("durable job row says %q, want cancelled", ds)
			}
			// The tenant database was compacted: the partial run is in the
			// snapshot, and the log holds the little that came after.
			path := s.tenants.Path("alice")
			if _, err := os.Stat(path); err != nil {
				t.Errorf("no snapshot after a cancelled job: %v", err)
			}
			if fi, err := os.Stat(sqldb.WALPath(path)); err != nil || fi.Size() > 16<<10 {
				t.Errorf("log after a cancelled job: %v, %d bytes — not compacted", err, fi.Size())
			}
			// The job is over: its phase says so and its clock has stopped.
			snap := progressOf(t, ts.URL, "long")
			if snap.Phase != telemetry.PhaseStopped {
				t.Errorf("phase after cancel = %q, want %q", snap.Phase, telemetry.PhaseStopped)
			}
			if later := progressOf(t, ts.URL, "long"); later.ElapsedSeconds != snap.ElapsedSeconds {
				t.Errorf("elapsed_seconds moved from %v to %v after the job ended", snap.ElapsedSeconds, later.ElapsedSeconds)
			}
			// Cancelling a terminal campaign is a 409.
			if resp, _ := postJSON(t, url+"/cancel", nil); resp.StatusCode != http.StatusConflict {
				t.Errorf("cancel cancelled = %d, want 409", resp.StatusCode)
			}
			// Partial results are still analyzable.
			var res ResultsResponse
			if code := getJSON(t, url+"/results", &res); code != http.StatusOK || res.Report == "" {
				t.Errorf("results after cancel = %d (report %d bytes)", code, len(res.Report))
			}
		}},
		{"cancel-before-start", func(t *testing.T, src rowSource) {
			s, ts := newTestServer(t, Config{Boards: 2, MaxConcurrent: 1})
			defer shutdownServer(t, s)
			// A paused job holds the only runner slot for as long as needed.
			blocker := rowSources[0].submit(t, ts.URL, "blocker", stopN)
			pollState(t, ts.URL, "alice", "blocker", StateRunning)
			if resp, body := postJSON(t, blocker+"/pause", nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("pause blocker = %d: %s", resp.StatusCode, body)
			}
			url := src.submit(t, ts.URL, "queued", stopN)
			if resp, body := postJSON(t, url+"/cancel", nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("cancel queued = %d: %s", resp.StatusCode, body)
			}
			postJSON(t, blocker+"/cancel", nil)
			st := pollState(t, ts.URL, "alice", "queued", StateCancelled)
			if st.State != StateCancelled || st.Summary != nil || st.Progress != nil {
				t.Fatalf("job cancelled in the queue = %+v, want cancelled without having run", st)
			}
			if ds, _ := s.durableState("alice", "queued"); ds != StateCancelled {
				t.Errorf("durable job row says %q, want cancelled", ds)
			}
		}},
		{"pause", func(t *testing.T, src rowSource) {
			s, ts := newTestServer(t, Config{Boards: 2, MaxConcurrent: 1})
			defer shutdownServer(t, s)
			url := src.submit(t, ts.URL, "pr", stopN)
			pollState(t, ts.URL, "alice", "pr", StateRunning)
			want := http.StatusConflict
			if src.pauses {
				want = http.StatusOK
			}
			if resp, body := postJSON(t, url+"/pause", nil); resp.StatusCode != want {
				t.Fatalf("pause = %d, want %d: %s", resp.StatusCode, want, body)
			}
			if src.pauses {
				if resp, body := postJSON(t, url+"/resume", nil); resp.StatusCode != http.StatusOK {
					t.Fatalf("resume = %d: %s", resp.StatusCode, body)
				}
			}
			postJSON(t, url+"/cancel", nil)
			if st := pollState(t, ts.URL, "alice", "pr", StateCancelled); st.State != StateCancelled {
				t.Fatalf("state after cancel = %s (err %q)", st.State, st.Error)
			}
		}},
		{"explicit-checkpoint", func(t *testing.T, src rowSource) {
			// The interval is the solo runner's: a sharded submission that
			// sets it is refused by name, whether the shard count is its own
			// or the daemon's default, and leaves no job behind.
			for _, daemonShards := range []int{0, 2} {
				s, ts := newTestServer(t, Config{Boards: 2, MaxConcurrent: 1, DefaultShards: daemonShards})
				resp, body := postJSON(t, ts.URL+"/api/v1/campaigns", SubmitRequest{
					Tenant: "alice", Campaign: testCampaign("ck", 20), Shards: src.shards, Checkpoint: 4})
				if sharded := src.shards > 0 || daemonShards > 0; !sharded {
					if resp.StatusCode != http.StatusAccepted {
						t.Errorf("solo submission with a checkpoint = %d: %s", resp.StatusCode, body)
					}
					pollState(t, ts.URL, "alice", "ck", StateDone)
				} else if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), errShardedCheckpoint.Error()) {
					t.Errorf("sharded submission (shards %d, daemon default %d) with a checkpoint = %d: %s",
						src.shards, daemonShards, resp.StatusCode, body)
				} else if s.lookup("alice", "ck") != nil {
					t.Error("the refused submission left a job")
				}
				shutdownServer(t, s)
			}
		}},
		{"shutdown-restart", restart(shutdownServer)},
		{"kill-restart", restart(func(_ testing.TB, s *Server) { s.Kill() })},
		{"store-fails", storeFails(false)},
		// A stop does not excuse the flush that follows it.
		{"store-fails-cancelled", storeFails(true)},
	}
	for _, sc := range scenarios {
		for _, src := range rowSources {
			t.Run(sc.name+"/"+src.name, func(t *testing.T) { sc.run(t, src) })
		}
	}
}

// storeFails breaks the tenant's disk under a running job, which must end
// failed with the disk's error — also when a cancel gets there first.
func storeFails(cancel bool) func(*testing.T, rowSource) {
	return func(t *testing.T, src rowSource) {
		s, ts := newTestServer(t, Config{Boards: 2, MaxConcurrent: 1})
		defer s.Kill() // the tenant database cannot be closed cleanly any more
		url := src.submit(t, ts.URL, "doomed", stopN)
		waitMidRun(t, url)
		_, db, release, err := s.tenants.Acquire("alice")
		if err != nil {
			t.Fatal(err)
		}
		db.AttachWAL(sqldb.NewWAL(fullDisk{}, sqldb.SyncAlways))
		release()
		if cancel {
			postJSON(t, url+"/cancel", nil)
		}
		st := pollState(t, ts.URL, "alice", "doomed", StateFailed)
		if st.State != StateFailed || !strings.Contains(st.Error, "disk full") {
			t.Fatalf("job over a failed store: state %s, err %q", st.State, st.Error)
		}
		if snap := progressOf(t, ts.URL, "doomed"); snap.Phase != telemetry.PhaseFailed {
			t.Errorf("phase = %q, want %q", snap.Phase, telemetry.PhaseFailed)
		}
	}
}

type fullDisk struct{}

func (fullDisk) Write([]byte) (int, error) { return 0, fmt.Errorf("simulated disk full") }

// TestShardedJobWorkersExhausted: in-process workers that all leave with
// the plan unfinished — retired by the coordinator, here by quarantine —
// fail the job, since nothing is left to drive it.
func TestShardedJobWorkersExhausted(t *testing.T) {
	s, ts := newTestServer(t, Config{Boards: 2, MaxConcurrent: 1})
	defer shutdownServer(t, s)
	src := rowSources[1]
	waitMidRun(t, src.submit(t, ts.URL, "lost", stopN))
	coord := s.lookup("alice", "lost").coord
	workers := make([]string, src.shards)
	for i := range workers {
		workers[i] = fmt.Sprintf("alice-w%d", i)
		// A hello in another protocol version quarantines its sender.
		if _, err := coord.Hello(shard.HelloRequest{Worker: workers[i], Protocol: shard.ProtocolVersion + 1}); err == nil {
			t.Fatal("hello of another protocol version accepted")
		}
	}
	// Retire every lease under its holder: the worker abandons the range,
	// asks for another, and is sent home.
	for _, w := range workers {
		for id := 1; id <= src.shards; id++ {
			_, _ = coord.Report(shard.ReportRequest{Worker: w, LeaseID: fmt.Sprintf("l%04d", id), Final: true})
		}
	}
	st := pollState(t, ts.URL, "alice", "lost", StateFailed)
	if st.State != StateFailed || st.Error != "shard workers exhausted before the plan completed" {
		t.Fatalf("state %s, err %q: want failed, workers exhausted", st.State, st.Error)
	}
}
