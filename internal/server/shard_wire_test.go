package server

// The small JSON bodies of the shard protocol — hello, lease, heartbeat —
// arrive from worker processes the daemon does not control. Whatever bytes
// they carry, the handlers answer with one of the protocol's own statuses
// and the campaign behind them is none the worse.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"goofi/internal/core"
	"goofi/internal/shard"
)

func FuzzShardJSONBodies(f *testing.F) {
	for _, seed := range []string{
		``, `{}`, `null`, `[]`, `{"worker":`, `{"worker":7}`,
		`{"worker":"fz","host":"h","protocol":4}`,
		`{"worker":"fz","protocol":3}`,
		`{"worker":"fz"}`,
		`{"worker":"fz","leaseId":"l0001"}`,
		`{"worker":"fz","leaseId":"nope"}`,
		`{"worker":"fz","leaseId":{"a":[1,2,{"b":null}]}}`,
	} {
		f.Add([]byte(seed))
	}
	// A short lease cadence: a fuzzed lease is never reported on, and has to
	// expire (and, thrice, retire its worker) for the plan to go on.
	s, ts := newTestServer(f, Config{Boards: 1, MaxConcurrent: 1,
		ShardHeartbeat: 10 * time.Millisecond, ShardLeaseTTL: 20 * time.Millisecond})
	resp, body := postJSON(f, ts.URL+"/api/v1/campaigns", SubmitRequest{
		Tenant: "alice", Campaign: testCampaign("wire", 40), Shards: 2, ExternalWorkers: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		f.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	pollState(f, ts.URL, "alice", "wire", StateRunning)
	f.Cleanup(func() {
		// The campaign the fuzzed calls were aimed at still completes.
		w, err := shard.NewWorker(shard.WorkerConfig{
			Name: "the-real-worker", Transport: shard.Direct{C: s.lookup("alice", "wire").coord},
		})
		if err != nil {
			f.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := w.Run(ctx); err != nil {
			f.Errorf("worker after the fuzzed calls: %v", err)
		}
		if st := pollState(f, ts.URL, "alice", "wire", StateDone); st.State != StateDone {
			f.Errorf("campaign after the fuzzed calls: state %s (err %q)", st.State, st.Error)
		}
		shutdownServer(f, s)
	})

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, call := range []string{"hello", "lease", "heartbeat"} {
			req := httptest.NewRequest("POST", "/api/v1/shards/alice/wire/"+call, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusUpgradeRequired:
			default:
				t.Errorf("%s with body %q answered %d: %s", call, body, rec.Code, rec.Body)
			}
		}
	})
}

// TestWireJSONGolden pins the JSON of a lease and of a submission — which
// is also the stored ServerJob spec. The six run options come together, and
// a spec stored by an older build reads back the same but for its
// imageBytes, the second spelling of targetParams' image-bytes that went
// with the -image-bytes flag.
func TestWireJSONGolden(t *testing.T) {
	opts := core.RunOptions{
		Technique: "scifi", TargetKind: "scifi", TargetParams: map[string]string{"b": "2", "a": "1"},
		NoForward: true, MaxRetries: 3, BoardFailureThreshold: 2,
	}
	lease := shard.LeaseResponse{Status: shard.LeaseRange, LeaseID: "l0001", Range: shard.Range{Lo: 3, Hi: 9},
		RunOptions: opts, HeartbeatEvery: 500 * time.Millisecond}
	submit := SubmitRequest{Tenant: "alice", RunOptions: opts, Boards: 2, Checkpoint: 8,
		Shards: 4, ExternalWorkers: true}
	for _, c := range []struct {
		name string
		v    any
		want string
	}{
		{"lease", lease, `{"status":"range","leaseId":"l0001","range":{"lo":3,"hi":9},"technique":"scifi","targetKind":"scifi","targetParams":{"a":"1","b":"2"},"noForward":true,"maxRetries":3,"boardFailureThreshold":2,"heartbeatEvery":500000000}`},
		{"lease-wait", shard.LeaseResponse{Status: shard.LeaseWait, HeartbeatEvery: time.Second},
			`{"status":"wait","range":{"lo":0,"hi":0},"heartbeatEvery":1000000000}`},
		{"submit", submit, `{"tenant":"alice","campaign":null,"technique":"scifi","targetKind":"scifi","targetParams":{"a":"1","b":"2"},"noForward":true,"maxRetries":3,"boardFailureThreshold":2,"boards":2,"checkpoint":8,"shards":4,"externalWorkers":true}`},
		{"submit-minimal", SubmitRequest{Tenant: "alice"}, `{"tenant":"alice","campaign":null}`},
	} {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%s marshals to\n %s\nwant\n %s", c.name, got, c.want)
		}
	}

	const parentSubmit = `{"tenant":"alice","campaign":null,"targetKind":"scifi","imageBytes":512,"targetParams":{"a":"1","b":"2"},"technique":"scifi","boards":2,"checkpoint":8,"noForward":true,"maxRetries":3,"boardFailureThreshold":2,"shards":4,"externalWorkers":true}`
	var stored SubmitRequest
	if err := json.Unmarshal([]byte(parentSubmit), &stored); err != nil {
		t.Fatal(err)
	}
	again, _ := json.Marshal(stored)
	now, _ := json.Marshal(submit)
	if !bytes.Equal(again, now) {
		t.Errorf("a spec stored by an older build reads back as\n %s\nwant\n %s", again, now)
	}
}
