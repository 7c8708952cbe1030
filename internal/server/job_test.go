package server

import (
	"net/http"
	"testing"

	"goofi/internal/sqldb"
)

// TestFinishedJobDropsItsWork: a done, a failed and a cancelled job hold no
// work — the runner, its plan and its forward set go with the run — and
// pause, resume and cancel on them answer 409 as before.
func TestFinishedJobDropsItsWork(t *testing.T) {
	finished := func(t *testing.T, s *Server, base, name, want string) {
		t.Helper()
		if st := pollState(t, base, "alice", name, want); st.State != want {
			t.Fatalf("state %s (err %q), want %s", st.State, st.Error, want)
		}
		j := s.lookup("alice", name)
		j.mu.Lock()
		held := j.work != nil
		j.mu.Unlock()
		if held {
			t.Errorf("a %s job still holds its work", want)
		}
		url := base + "/api/v1/campaigns/alice/" + name
		for _, action := range []string{"pause", "resume", "cancel"} {
			if resp, body := postJSON(t, url+"/"+action, nil); resp.StatusCode != http.StatusConflict {
				t.Errorf("%s on a %s job = %d (%s), want 409", action, want, resp.StatusCode, body)
			}
		}
	}
	submit := func(t *testing.T, base, name string, n int) string {
		t.Helper()
		resp, body := postJSON(t, base+"/api/v1/campaigns", SubmitRequest{Tenant: "alice", Campaign: testCampaign(name, n)})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d: %s", resp.StatusCode, body)
		}
		return base + "/api/v1/campaigns/alice/" + name
	}

	t.Run("done-and-cancelled", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Boards: 1, MaxConcurrent: 1})
		defer shutdownServer(t, s)
		submit(t, ts.URL, "short", 40)
		finished(t, s, ts.URL, "short", StateDone)
		url := submit(t, ts.URL, "long", stopN)
		waitMidRun(t, url)
		if resp, body := postJSON(t, url+"/cancel", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel = %d: %s", resp.StatusCode, body)
		}
		finished(t, s, ts.URL, "long", StateCancelled)
	})
	t.Run("failed", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Boards: 1, MaxConcurrent: 1})
		defer s.Kill() // the tenant database cannot be closed cleanly any more
		waitMidRun(t, submit(t, ts.URL, "doomed", stopN))
		_, db, release, err := s.tenants.Acquire("alice")
		if err != nil {
			t.Fatal(err)
		}
		db.AttachWAL(sqldb.NewWAL(fullDisk{}, sqldb.SyncAlways))
		release()
		finished(t, s, ts.URL, "doomed", StateFailed)
	})
}
