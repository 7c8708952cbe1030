package server

// The campaign-lifecycle HTTP API plus the merged telemetry endpoints.
// Everything speaks JSON, bar the body of a shard report; errors come
// back as {"error": "..."} with a meaningful status code (400 bad plan,
// 404 unknown campaign, 409 bad state transition, 429 queue full).

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path"
	"sort"
	"strings"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/shard"
	"goofi/internal/sqldb"
	"goofi/internal/telemetry"
)

// JobStatus is the API view of one submitted campaign.
type JobStatus struct {
	Tenant   string                      `json:"tenant"`
	Campaign string                      `json:"campaign"`
	State    string                      `json:"state"`
	Error    string                      `json:"error,omitempty"`
	Summary  *core.Summary               `json:"summary,omitempty"`
	Progress *telemetry.ProgressSnapshot `json:"progress,omitempty"`
}

// ResultsResponse carries the rendered dependability report and,
// on request (?records=1), the raw experiment records.
type ResultsResponse struct {
	Tenant   string                       `json:"tenant"`
	Campaign string                       `json:"campaign"`
	State    string                       `json:"state"`
	Report   string                       `json:"report"`
	Records  []*campaign.ExperimentRecord `json:"records,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	mux.HandleFunc("GET /api/v1/campaigns/{tenant}/{name}", s.handleStatus)
	mux.HandleFunc("POST /api/v1/campaigns/{tenant}/{name}/pause", s.handleControl)
	mux.HandleFunc("POST /api/v1/campaigns/{tenant}/{name}/resume", s.handleControl)
	mux.HandleFunc("POST /api/v1/campaigns/{tenant}/{name}/cancel", s.handleControl)
	mux.HandleFunc("GET /api/v1/campaigns/{tenant}/{name}/results", s.handleResults)

	// Shard protocol: external `goofi shard-worker` processes register,
	// lease ranges of a sharded campaign, prove liveness, and report
	// records. All four calls sit behind the shared-token gate.
	mux.HandleFunc("POST /api/v1/shards/{tenant}/{name}/hello", s.shardAuth(s.handleShardHello))
	mux.HandleFunc("POST /api/v1/shards/{tenant}/{name}/lease", s.shardAuth(s.handleShardLease))
	mux.HandleFunc("POST /api/v1/shards/{tenant}/{name}/heartbeat", s.shardAuth(s.handleShardHeartbeat))
	mux.HandleFunc("POST /api/v1/shards/{tenant}/{name}/report", s.shardAuth(s.handleShardReport))

	// The PR 5 introspection endpoints, merged into the daemon so one
	// listener serves both the API and the telemetry.
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = telemetry.Default.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /progress", s.handleProgress)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad submission: %v", err)
		return
	}
	if req.Shards == 0 {
		// Inherit the daemon-wide scale-out default; the persisted spec
		// carries the resolved count so recovery reruns the same way.
		req.Shards = s.cfg.DefaultShards
	}
	if req.Shards > 0 && req.Checkpoint != 0 {
		// Asked before normalize fills the default in: the interval is the
		// solo runner's cursor cadence, and a sharded job has no runner.
		writeErr(w, http.StatusBadRequest, "bad submission: %v", errShardedCheckpoint)
		return
	}
	req.normalize()
	if err := req.validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "bad submission: %v", err)
		return
	}
	// submitMu serializes submissions so the duplicate check, the
	// campaign rows, and the queue admission act as one step.
	s.submitMu.Lock()
	defer s.submitMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	prev := s.jobs[jobKey(req.Tenant, req.Campaign.Name)]
	s.mu.Unlock()
	if closed {
		writeErr(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	if prev != nil {
		switch prev.snapshot().State {
		case StateDone, StateFailed, StateCancelled:
		default:
			writeErr(w, http.StatusConflict, "campaign %s/%s already queued or running",
				req.Tenant, req.Campaign.Name)
			return
		}
	}
	// Persist the definition and the pending job row first: an accepted
	// submission must survive a crash before the 202 goes out.
	st, db, release, err := s.tenants.Acquire(req.Tenant)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	defer release()
	tsd, err := req.targetData()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "configure target: %v", err)
		return
	}
	if err := st.PutTargetSystem(tsd); err != nil {
		writeErr(w, http.StatusInternalServerError, "configure target: %v", err)
		return
	}
	if err := st.PutCampaign(req.Campaign); err != nil {
		writeErr(w, http.StatusBadRequest, "set up campaign: %v", err)
		return
	}
	if err := ensureJobTable(db); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if err := putJobRow(db, &req, StatePending); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	j := &job{spec: req, state: StatePending}
	if err := s.enqueue(j); err != nil {
		// Roll the durable row back so a rejected submission is not
		// resurrected on the next boot.
		_, _ = db.Exec(`DELETE FROM ServerJob WHERE campaignName = ?`,
			sqldb.Text(req.Campaign.Name))
		switch err {
		case errQueueFull:
			writeErr(w, http.StatusTooManyRequests, "campaign queue full, retry later")
		case errDuplicate:
			writeErr(w, http.StatusConflict, "campaign %s/%s already queued or running",
				req.Tenant, req.Campaign.Name)
		default:
			writeErr(w, http.StatusServiceUnavailable, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobList()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.snapshot())
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Tenant != out[k].Tenant {
			return out[i].Tenant < out[k].Tenant
		}
		return out[i].Campaign < out[k].Campaign
	})
	writeJSON(w, http.StatusOK, out)
}

// durableState reads a job's state straight from the tenant database
// for campaigns no live job tracks (finished before a restart). The
// bool reports whether the job row exists; the tenant database is never
// created by the lookup.
func (s *Server) durableState(tenant, name string) (string, bool) {
	if !campaign.ValidTenant(tenant) {
		return "", false
	}
	path := s.tenants.Path(tenant)
	if _, err := os.Stat(path); err != nil {
		if _, err := os.Stat(path + ".wal"); err != nil {
			return "", false
		}
	}
	_, db, release, err := s.tenants.Acquire(tenant)
	if err != nil {
		return "", false
	}
	defer release()
	if err := ensureJobTable(db); err != nil {
		return "", false
	}
	res, err := db.Query(`SELECT state FROM ServerJob WHERE campaignName = ?`, sqldb.Text(name))
	if err != nil || len(res.Rows) == 0 {
		return "", false
	}
	return res.Rows[0][0].S, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	tenant, name := r.PathValue("tenant"), r.PathValue("name")
	if j := s.lookup(tenant, name); j != nil {
		writeJSON(w, http.StatusOK, j.snapshot())
		return
	}
	if state, ok := s.durableState(tenant, name); ok {
		writeJSON(w, http.StatusOK, JobStatus{Tenant: tenant, Campaign: name, State: state})
		return
	}
	writeErr(w, http.StatusNotFound, "no campaign %s/%s", tenant, name)
}

func (s *Server) handleControl(w http.ResponseWriter, r *http.Request) {
	tenant, name := r.PathValue("tenant"), r.PathValue("name")
	action := path.Base(r.URL.Path) // "pause", "resume", "cancel"
	j := s.lookup(tenant, name)
	if j == nil {
		writeErr(w, http.StatusNotFound, "no campaign %s/%s", tenant, name)
		return
	}
	j.mu.Lock()
	var err error
	switch action {
	case "pause":
		if j.state == StateRunning && j.work.runner != nil {
			j.work.runner.Pause()
			j.state = StatePaused
		} else {
			err = fmt.Errorf("cannot pause a %s campaign", j.state)
		}
	case "resume":
		if j.state == StatePaused {
			j.work.runner.Resume()
			j.state = StateRunning
		} else {
			err = fmt.Errorf("cannot resume a %s campaign", j.state)
		}
	case "cancel":
		switch j.state {
		case StatePending:
			// Not started yet: the consumer will see the flag and retire
			// the job without running it.
			j.cancelled = true
		case StateRunning, StatePaused:
			j.cancelled = true
			j.work.stop()
		default:
			err = fmt.Errorf("cannot cancel a %s campaign", j.state)
		}
	}
	j.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	tenant, name := r.PathValue("tenant"), r.PathValue("name")
	var state string
	if j := s.lookup(tenant, name); j != nil {
		state = j.snapshot().State
	} else if ds, ok := s.durableState(tenant, name); ok {
		state = ds
	} else {
		writeErr(w, http.StatusNotFound, "no campaign %s/%s", tenant, name)
		return
	}
	if state != StateDone && state != StateCancelled {
		writeErr(w, http.StatusConflict, "campaign %s/%s has no results yet (state %s)",
			tenant, name, state)
		return
	}
	st, _, release, err := s.tenants.Acquire(tenant)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	defer release()
	rep, err := analysis.AnalyzeAndStore(st, name)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "analyze: %v", err)
		return
	}
	resp := ResultsResponse{Tenant: tenant, Campaign: name, State: state, Report: rep.Render()}
	if r.URL.Query().Get("records") == "1" {
		recs, err := st.Experiments(name)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		resp.Records = recs
	}
	writeJSON(w, http.StatusOK, resp)
}

// shardAuth gates the shard protocol behind the daemon's shared worker
// token. With no token configured every worker is welcome (single-host
// deployments). With one, the comparison is constant-time and a miss is
// 401 — which the shard client maps to the terminal ErrUnauthorized, so
// a misconfigured worker exits instead of hammering the daemon, and an
// in-flight campaign served by authorized workers never notices.
func (s *Server) shardAuth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.ShardToken != "" {
			token, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			if !ok || subtle.ConstantTimeCompare([]byte(token), []byte(s.cfg.ShardToken)) != 1 {
				writeErr(w, http.StatusUnauthorized, "shard worker not authorized")
				return
			}
		}
		next(w, r)
	}
}

func (s *Server) handleShardHello(w http.ResponseWriter, r *http.Request) {
	var req shard.HelloRequest
	coord := s.shardCoord(w, r, "hello", &req)
	if coord == nil {
		return
	}
	resp, err := coord.Hello(req)
	if err != nil {
		// Only a protocol mismatch fails a hello.
		writeErr(w, http.StatusUpgradeRequired, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// shardCoord resolves the live coordinator of a sharded job, or answers
// the request itself: 404 when the daemon tracks no such job (a worker
// knocking across a restart gap keeps retrying), 409 when the job is not
// on the sharded path or not running yet, 400 when the call's small JSON
// body does not decode into req (nil for a report, whose body is a frame).
func (s *Server) shardCoord(w http.ResponseWriter, r *http.Request, call string, req any) *shard.Coordinator {
	tenant, name := r.PathValue("tenant"), r.PathValue("name")
	j := s.lookup(tenant, name)
	if j == nil {
		writeErr(w, http.StatusNotFound, "no campaign %s/%s", tenant, name)
		return nil
	}
	j.mu.Lock()
	coord := j.coord
	j.mu.Unlock()
	if coord == nil {
		writeErr(w, http.StatusConflict, "campaign %s/%s is not serving shards", tenant, name)
		return nil
	}
	if req != nil {
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad %s: %v", call, err)
			return nil
		}
	}
	return coord
}

func (s *Server) handleShardLease(w http.ResponseWriter, r *http.Request) {
	var req shard.LeaseRequest
	coord := s.shardCoord(w, r, "lease request", &req)
	if coord == nil {
		return
	}
	// The coordinator may hold the request until it has an answer worth
	// sending; a worker that hangs up frees it through the context.
	writeJSON(w, http.StatusOK, coord.Lease(r.Context(), req))
}

func (s *Server) handleShardHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req shard.HeartbeatRequest
	coord := s.shardCoord(w, r, "heartbeat", &req)
	if coord == nil {
		return
	}
	if err := coord.Heartbeat(req); err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleShardReport(w http.ResponseWriter, r *http.Request) {
	coord := s.shardCoord(w, r, "", nil)
	if coord == nil {
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != shard.FrameContentType {
		// A JSON body is a worker from before protocol version 2.
		writeErr(w, http.StatusUnsupportedMediaType,
			"report bodies are %s frames (shard protocol version %d), not %q — run the same goofi build on both sides",
			shard.FrameContentType, shard.ProtocolVersion, ct)
		return
	}
	// Reports carry row batches; give them real headroom. The buffer
	// starts at the declared length, which saves a megabyte-sized body
	// its doublings, but a declaration buys at most that much up front.
	body := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), 1<<20)+bytes.MinRead))
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, 64<<20)); err != nil {
		writeErr(w, http.StatusBadRequest, "bad report: %v", err)
		return
	}
	resp, err := coord.ReportFrame(body.Bytes())
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, shard.ErrBadLease):
		writeErr(w, http.StatusConflict, "%v", err)
	case errors.Is(err, shard.ErrProtocol):
		writeErr(w, http.StatusUnsupportedMediaType, "%v", err)
	case errors.Is(err, shard.ErrBadFrame):
		writeErr(w, http.StatusBadRequest, "%v", err)
	default:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleProgress keeps the PR 5 contract: with ?tenant=&campaign= it
// returns that campaign's ProgressSnapshot (the same shape the
// standalone telemetry server produced); with no arguments it returns a
// map of every tracked job's snapshot keyed tenant/campaign.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	tenant, name := r.URL.Query().Get("tenant"), r.URL.Query().Get("campaign")
	if tenant != "" || name != "" {
		j := s.lookup(tenant, name)
		if j == nil {
			writeErr(w, http.StatusNotFound, "no campaign %s/%s", tenant, name)
			return
		}
		j.mu.Lock()
		prog := j.prog
		j.mu.Unlock()
		if prog == nil {
			writeErr(w, http.StatusConflict, "campaign %s/%s has not started", tenant, name)
			return
		}
		writeJSON(w, http.StatusOK, prog.Snapshot())
		return
	}
	out := make(map[string]telemetry.ProgressSnapshot)
	for _, j := range s.jobList() {
		j.mu.Lock()
		prog := j.prog
		j.mu.Unlock()
		if prog != nil {
			out[j.key()] = prog.Snapshot()
		}
	}
	writeJSON(w, http.StatusOK, out)
}
