package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// get fetches a path from the test server and returns status, content
// type, and body.
func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestHandlerEndpoints drives the introspection mux through httptest:
// /metrics content type and payload, /healthz liveness, and the
// /progress JSON shape the README documents.
func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("goofi_srv_test_total", "test counter").Add(3)
	prog := NewProgress(2)
	prog.Start("demo", 50)
	prog.SetPhase("experiment")
	prog.AddDone(5)
	prog.BoardRunning(1, 6)
	srv := httptest.NewServer(Handler(reg, prog))
	defer srv.Close()

	code, ctype, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if ctype != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics content type = %q", ctype)
	}
	if !strings.Contains(body, "goofi_srv_test_total 3\n") {
		t.Errorf("/metrics body missing counter sample:\n%s", body)
	}

	code, _, body = get(t, srv, "/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, ctype, body = get(t, srv, "/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status = %d", code)
	}
	if ctype != "application/json" {
		t.Errorf("/progress content type = %q", ctype)
	}
	var snap struct {
		Campaign         string  `json:"campaign"`
		Phase            string  `json:"phase"`
		Done             int64   `json:"done"`
		Total            int64   `json:"total"`
		Retried          int64   `json:"retried"`
		InvalidRuns      int64   `json:"invalid_runs"`
		Forwarded        int64   `json:"forwarded"`
		ElapsedSeconds   float64 `json:"elapsed_seconds"`
		RecordsPerSecond float64 `json:"records_per_second"`
		ETASeconds       float64 `json:"eta_seconds"`
		Boards           []struct {
			Board int    `json:"board"`
			State string `json:"state"`
			Seq   int64  `json:"seq"`
		} `json:"boards"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/progress is not the documented JSON shape: %v\n%s", err, body)
	}
	if snap.Campaign != "demo" || snap.Phase != "experiment" {
		t.Errorf("campaign/phase = %q/%q", snap.Campaign, snap.Phase)
	}
	if snap.Done != 5 || snap.Total != 50 {
		t.Errorf("done/total = %d/%d", snap.Done, snap.Total)
	}
	if len(snap.Boards) != 2 || snap.Boards[1].State != BoardRunning || snap.Boards[1].Seq != 6 {
		t.Errorf("boards = %+v", snap.Boards)
	}

	// pprof is mounted; its index must answer.
	code, _, _ = get(t, srv, "/debug/pprof/")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", code)
	}
}

// TestNewServer binds a real listener on a free port and serves the
// same mux — what `goofi run -telemetry-addr :0` does.
func TestNewServer(t *testing.T) {
	prog := NewProgress(1)
	srv, err := NewServer("127.0.0.1:0", NewRegistry(), prog)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
	if err := srv.Close(); err != nil {
		t.Error(err)
	}
}

// TestServerShutdownGraceful: with no requests in flight, Shutdown
// drains immediately, and the listener stops accepting.
func TestServerShutdownGraceful(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", NewRegistry(), NewProgress(1))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown = %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestServerShutdownTimeout: a connection stuck mid-request keeps
// Shutdown from draining; when the context expires the server falls
// back to a hard close instead of hanging the daemon forever.
func TestServerShutdownTimeout(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", NewRegistry(), NewProgress(1))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A partial request pins the connection active.
	if _, err := conn.Write([]byte("GET /metrics HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server accepts connections in the order they were made, so once
	// a later one is answered it holds the stuck one too: without this a
	// Shutdown that closes the listener first finds nothing to drain.
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if err == nil {
		t.Fatal("shutdown reported clean drain with a stuck connection")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shutdown took %v, fallback close did not engage", elapsed)
	}
}
