package server

// The PR's correctness pin: a campaign submitted to goofid must produce
// LoggedSystemState records and an analysis report byte-identical to
// the same campaign run through the `goofi run` code path — alone, with
// concurrent tenants contending for the shared fleet, and across a
// daemon crash and restart.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
)

// soloRun executes camp exactly the way `goofi run` does — own database,
// own boards, no daemon — and returns the store holding the results.
func soloRun(t *testing.T, camp *campaign.Campaign, boards int) *campaign.Store {
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
	tsd := scifi.TargetSystemData(camp.TargetName)
	if err := st.PutTargetSystem(tsd); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign(camp); err != nil {
		t.Fatal(err)
	}
	factory := func() core.TargetSystem { return scifi.New(thor.DefaultConfig()) }
	sink := campaign.NewBatchingSink(st, 0)
	r, err := core.NewRunner(factory(), core.Algorithms()["scifi"], camp, tsd,
		core.WithSink(sink),
		core.WithBoards(boards, factory),
		core.WithCheckpoints(core.DefaultCheckpointInterval))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteCheckpoint(camp.Name); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return st
}

// recordBytes renders every end-of-experiment record of a campaign to
// canonical JSON, in sequence order.
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

// assertIdentical fails unless the tenant's records and report match the
// solo run byte for byte.
func assertIdentical(t *testing.T, s *Server, tenant, name string, wantRecs []string, wantReport string) {
	t.Helper()
	st, _, release, err := s.tenants.Acquire(tenant)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	got := recordBytes(t, st, name)
	if len(got) != len(wantRecs) {
		t.Fatalf("tenant %s: %d records, solo run has %d", tenant, len(got), len(wantRecs))
	}
	for i := range got {
		if got[i] != wantRecs[i] {
			t.Fatalf("tenant %s: record %d differs\n daemon: %s\n   solo: %s", tenant, i, got[i], wantRecs[i])
		}
	}
	if gotRep := reportText(t, st, name); gotRep != wantReport {
		t.Fatalf("tenant %s: analysis report differs\n daemon:\n%s\n solo:\n%s", tenant, gotRep, wantReport)
	}
}

func TestDifferentialSolo(t *testing.T) {
	camp := testCampaign("diff", 40)
	solo := soloRun(t, camp, 2)
	wantRecs := recordBytes(t, solo, "diff")
	wantReport := reportText(t, solo, "diff")

	s, ts := newTestServer(t, Config{Boards: 2, MaxConcurrent: 1})
	defer shutdownServer(t, s)
	resp, body := postJSON(t, ts.URL+"/api/v1/campaigns", SubmitRequest{
		Tenant: "alice", Campaign: camp, Boards: 2,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	if st := pollState(t, ts.URL, "alice", "diff", StateDone); st.State != StateDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
	assertIdentical(t, s, "alice", "diff", wantRecs, wantReport)
}

func TestDifferentialConcurrentTenants(t *testing.T) {
	camp := testCampaign("diff", 40)
	solo := soloRun(t, camp, 2)
	wantRecs := recordBytes(t, solo, "diff")
	wantReport := reportText(t, solo, "diff")

	// Three tenants run the same campaign at once, each asking for two
	// boards from a three-board fleet: the fair-share lease policy has to
	// juggle them, and none of that contention may show in the results.
	s, ts := newTestServer(t, Config{Boards: 3, MaxConcurrent: 3})
	defer shutdownServer(t, s)
	tenants := []string{"alice", "bob", "carol"}
	for _, tenant := range tenants {
		resp, body := postJSON(t, ts.URL+"/api/v1/campaigns", SubmitRequest{
			Tenant: tenant, Campaign: camp, Boards: 2,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s = %d: %s", tenant, resp.StatusCode, body)
		}
	}
	for _, tenant := range tenants {
		if st := pollState(t, ts.URL, tenant, "diff", StateDone); st.State != StateDone {
			t.Fatalf("%s: state = %s (err %q)", tenant, st.State, st.Error)
		}
	}
	for _, tenant := range tenants {
		assertIdentical(t, s, tenant, "diff", wantRecs, wantReport)
	}
}

func TestDifferentialKillRestart(t *testing.T) {
	// Large enough that the campaign cannot finish in the gap between
	// the progress poll observing Done >= 10 and Kill() landing — if it
	// did, the durable row would read "done" and there would be nothing
	// for the restarted daemon to resume. A fixed 600 experiments were
	// about 25 ms of work, which a loaded host can spend between the two.
	numExp := restartSize(t)
	camp := testCampaign("diff", numExp)
	solo := soloRun(t, camp, 2)
	wantRecs := recordBytes(t, solo, "diff")
	wantReport := reportText(t, solo, "diff")

	dir := t.TempDir()
	cfg := Config{DataDir: dir, Boards: 2, MaxConcurrent: 1}
	s1, ts1 := newTestServer(t, cfg)
	// A small checkpoint interval so the durable cursor is mid-campaign
	// when the daemon dies.
	resp, body := postJSON(t, ts1.URL+"/api/v1/campaigns", SubmitRequest{
		Tenant: "alice", Campaign: camp, Boards: 2, Checkpoint: 4,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	// Let it get partway, then pull the plug without any graceful
	// teardown: no sink drain, no checkpoint, no database close.
	url := ts1.URL + "/api/v1/campaigns/alice/diff"
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st JobStatus
		getJSON(t, url, &st)
		if st.Progress != nil && st.Progress.Done >= 10 {
			break
		}
		if st.State == StateDone || time.Now().After(deadline) {
			t.Fatalf("campaign finished too fast to kill (state %s)", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s1.Kill()
	ts1.Close()

	// A fresh daemon on the same data directory replays the WAL, finds
	// the pending job, and resumes it from the durable cursor.
	s2, ts2 := newTestServer(t, cfg)
	defer shutdownServer(t, s2)
	if st := pollState(t, ts2.URL, "alice", "diff", StateDone); st.State != StateDone {
		t.Fatalf("recovered state = %s (err %q)", st.State, st.Error)
	}
	assertIdentical(t, s2, "alice", "diff", wantRecs, wantReport)

	// The resumed run must not have redone everything: the recovered
	// summary covers only the remainder.
	var st JobStatus
	getJSON(t, fmt.Sprintf("%s/api/v1/campaigns/alice/diff", ts2.URL), &st)
	if st.Summary == nil || st.Summary.Experiments >= numExp {
		t.Errorf("recovered summary = %+v, want fewer than %d experiments", st.Summary, numExp)
	}
}
