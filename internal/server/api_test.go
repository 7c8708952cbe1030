package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// testCampaign is the quickstart campaign scaled to n experiments: the
// real scifi target and a real workload, so submitted campaigns run the
// full emulation path.
func testCampaign(name string, n int) *campaign.Campaign {
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

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	} else {
		rd = bytes.NewReader(nil)
	}
	resp, err := http.Post(url, "application/json", rd)
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

func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 400 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// pollState waits until the campaign reaches want (or any terminal
// state) and returns the final status.
func pollState(t testing.TB, base, tenant, name, want string) JobStatus {
	t.Helper()
	url := fmt.Sprintf("%s/api/v1/campaigns/%s/%s", base, tenant, name)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := getJSON(t, url, &st); code == http.StatusOK {
			switch st.State {
			case want, StateDone, StateFailed, StateCancelled:
				return st
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("campaign %s/%s never reached %s", tenant, name, want)
	return JobStatus{}
}

// pollPhase waits until the campaign's progress phase satisfies ok.
func pollPhase(t testing.TB, url string, ok func(phase string) bool, want string) {
	t.Helper()
	var st JobStatus
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		st = JobStatus{}
		if getJSON(t, url, &st) == http.StatusOK && st.Progress != nil && ok(st.Progress.Phase) {
			return
		}
	}
	t.Fatalf("progress never read %s: %+v", want, st.Progress)
}

func shutdownServer(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

func TestSubmitPollResultsRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, Config{Boards: 2, MaxConcurrent: 2})
	defer shutdownServer(t, s)

	resp, body := postJSON(t, ts.URL+"/api/v1/campaigns", SubmitRequest{
		Tenant: "alice", Campaign: testCampaign("rt", 20), Boards: 2,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}

	st := pollState(t, ts.URL, "alice", "rt", StateDone)
	if st.State != StateDone {
		t.Fatalf("final state = %s (err %q), want done", st.State, st.Error)
	}
	if st.Summary == nil || st.Summary.Experiments != 20 {
		t.Fatalf("summary = %+v, want 20 experiments", st.Summary)
	}

	var res ResultsResponse
	if code := getJSON(t, ts.URL+"/api/v1/campaigns/alice/rt/results?records=1", &res); code != http.StatusOK {
		t.Fatalf("results = %d", code)
	}
	if res.Report == "" {
		t.Error("results returned an empty report")
	}
	if len(res.Records) < 20 {
		t.Errorf("results returned %d records, want >= 20", len(res.Records))
	}

	// The list endpoint shows the job; unknown campaigns are 404.
	var all []JobStatus
	if code := getJSON(t, ts.URL+"/api/v1/campaigns", &all); code != http.StatusOK || len(all) != 1 {
		t.Errorf("list = %d with %d jobs, want 200 with 1", code, len(all))
	}
	if code := getJSON(t, ts.URL+"/api/v1/campaigns/alice/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown campaign status = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/campaigns/nobody/rt", nil); code != http.StatusNotFound {
		t.Errorf("unknown tenant status = %d, want 404", code)
	}
}

func TestSubmitRejectsBadPlans(t *testing.T) {
	s, ts := newTestServer(t, Config{Boards: 1, MaxConcurrent: 1})
	defer shutdownServer(t, s)

	cases := []struct {
		name string
		req  SubmitRequest
	}{
		{"bad tenant", SubmitRequest{Tenant: "../evil", Campaign: testCampaign("c", 5)}},
		{"no campaign", SubmitRequest{Tenant: "alice"}},
		{"bad technique", SubmitRequest{Tenant: "alice", Campaign: testCampaign("c", 5), RunOptions: core.RunOptions{Technique: "voodoo"}}},
		{"invalid campaign", SubmitRequest{Tenant: "alice", Campaign: &campaign.Campaign{Name: "c"}}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/api/v1/campaigns", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: submit = %d (%s), want 400", tc.name, resp.StatusCode, body)
		}
	}
	// Malformed JSON is a 400 too, not a panic.
	resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json",
		bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed submit = %d, want 400", resp.StatusCode)
	}
}

func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{Boards: 1, MaxConcurrent: 1, QueueDepth: 1})
	defer shutdownServer(t, s)

	// First campaign occupies the single runner slot. It is cancelled at
	// the end, never run to completion, so it can be made long enough
	// that it cannot finish (and free its slot) while the admission
	// checks below are still in flight — the fast path made 2000
	// experiments a matter of milliseconds.
	resp, body := postJSON(t, ts.URL+"/api/v1/campaigns", SubmitRequest{
		Tenant: "alice", Campaign: testCampaign("a", 100000),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit a = %d: %s", resp.StatusCode, body)
	}
	pollState(t, ts.URL, "alice", "a", StateRunning)

	// ...the second fills the queue...
	resp, body = postJSON(t, ts.URL+"/api/v1/campaigns", SubmitRequest{
		Tenant: "alice", Campaign: testCampaign("b", 5),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit b = %d: %s", resp.StatusCode, body)
	}

	// ...and the third is turned away with 429.
	resp, _ = postJSON(t, ts.URL+"/api/v1/campaigns", SubmitRequest{
		Tenant: "alice", Campaign: testCampaign("c", 5),
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over capacity = %d, want 429", resp.StatusCode)
	}
	// A rejected submission leaves no durable job row behind.
	if _, ok := s.durableState("alice", "c"); ok {
		t.Error("rejected submission left a durable job row")
	}

	// Resubmitting a live campaign is a conflict, not a new job.
	resp, _ = postJSON(t, ts.URL+"/api/v1/campaigns", SubmitRequest{
		Tenant: "alice", Campaign: testCampaign("a", 100000),
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate submit = %d, want 409", resp.StatusCode)
	}

	// Unblock the queue so shutdown stays fast.
	postJSON(t, ts.URL+"/api/v1/campaigns/alice/a/cancel", nil)
	pollState(t, ts.URL, "alice", "a", StateCancelled)
}

func TestPauseResume(t *testing.T) {
	s, ts := newTestServer(t, Config{Boards: 1, MaxConcurrent: 1})
	defer shutdownServer(t, s)

	resp, body := postJSON(t, ts.URL+"/api/v1/campaigns", SubmitRequest{
		Tenant: "alice", Campaign: testCampaign("pr", 3000),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	pollState(t, ts.URL, "alice", "pr", StateRunning)
	url := ts.URL + "/api/v1/campaigns/alice/pr"

	if resp, body := postJSON(t, url+"/pause", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pause = %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	getJSON(t, url, &st)
	if st.State != StatePaused {
		t.Fatalf("state after pause = %s", st.State)
	}
	// The run's progress says so once its cursor is durable, at the next
	// row, and until the resume.
	pollPhase(t, url, func(phase string) bool { return phase == "paused" }, "paused")
	// Pausing twice is a state error.
	if resp, _ := postJSON(t, url+"/pause", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("double pause = %d, want 409", resp.StatusCode)
	}
	if resp, body := postJSON(t, url+"/resume", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("resume = %d: %s", resp.StatusCode, body)
	}
	pollPhase(t, url, func(phase string) bool { return phase != "paused" }, "anything but paused")
	postJSON(t, url+"/cancel", nil)
	pollState(t, ts.URL, "alice", "pr", StateCancelled)
}
