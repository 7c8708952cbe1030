package shard

// Worker-side views of the coordinator: Direct for in-process shards
// (the daemon's own worker pool) and HTTP for external `goofi
// shard-worker` processes. Both carry the same request/response structs,
// so the conformance suite can prove byte identity once and cover both.
//
// The HTTP transport is built for real networks, not loopback: every
// call gets its own deadline, failures are classified (errors.go) into
// retryable transport faults vs terminal protocol rejections, retryable
// faults are retried with capped exponential backoff and seeded jitter
// (core.Backoff, the campaign retry policy's, lifted to the network
// layer), and response bodies are capped, drained and closed so retried
// requests reuse connections. Report retries reuse the request's
// idempotency key, so a delivery whose acknowledgement was lost is
// re-acked by the coordinator, never re-merged.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"goofi/internal/core"
)

// Transport is how a worker reaches its coordinator.
type Transport interface {
	Hello(ctx context.Context, req HelloRequest) (*HelloResponse, error)
	Lease(ctx context.Context, req LeaseRequest) (*LeaseResponse, error)
	Heartbeat(ctx context.Context, req HeartbeatRequest) error
	Report(ctx context.Context, req ReportRequest) (*ReportResponse, error)
}

// Direct is the in-process transport: method calls on the coordinator.
type Direct struct {
	C *Coordinator
}

func (d Direct) Hello(_ context.Context, req HelloRequest) (*HelloResponse, error) {
	resp, err := d.C.Hello(req)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

func (d Direct) Lease(ctx context.Context, req LeaseRequest) (*LeaseResponse, error) {
	resp := d.C.Lease(ctx, req)
	return &resp, nil
}

func (d Direct) Heartbeat(_ context.Context, req HeartbeatRequest) error {
	return d.C.Heartbeat(req)
}

func (d Direct) Report(_ context.Context, req ReportRequest) (*ReportResponse, error) {
	resp, err := d.C.Report(req)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Client deadlines and limits.
const (
	// DefaultCallTimeout bounds lease, heartbeat and hello calls — small
	// JSON round trips that answer quickly or not at all; a lease the
	// coordinator parks is answered within half of it at the latest.
	DefaultCallTimeout = 10 * time.Second
	// DefaultReportTimeout bounds report calls, which carry row
	// batches and may legitimately stall in the coordinator's ingest
	// backpressure while the merge catches up.
	DefaultReportTimeout = 60 * time.Second
	// maxResponseBytes caps how much of any response the client reads;
	// a misbehaving proxy cannot make a worker buffer without bound.
	maxResponseBytes = 8 << 20
	// errSnippetBytes is how much of an error response body travels in
	// the TransportError, for the worker's log.
	errSnippetBytes = 256
)

// RetryPolicy bounds the transport's retry loop — core.Backoff, as
// core.RetryPolicy's, applied to network calls instead of experiments.
// The zero value selects the defaults.
type RetryPolicy struct {
	// MaxRetries is how many times a retryable call is re-attempted
	// beyond its first execution (negative disables retries entirely).
	MaxRetries int
	// BackoffBase and BackoffMax bound the exponential backoff.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the jitter; the zero seed is a valid seed, so tests
	// that pin schedules can use any value including 0.
	Seed int64
}

// Retry defaults. The base is deliberately network-scaled (compare
// core.DefaultBackoffBase's 2ms, which is board-recovery-scaled): a
// dropped packet or a briefly restarting daemon needs tens of
// milliseconds, and four retries reach ~1.5s of total waiting before
// the worker's own outer loops take over.
const (
	DefaultTransportRetries    = 4
	DefaultTransportBackoff    = 50 * time.Millisecond
	DefaultTransportBackoffMax = 2 * time.Second
)

func (p *RetryPolicy) maxAttempts() int {
	if p.MaxRetries < 0 {
		return 1
	}
	if p.MaxRetries == 0 {
		return DefaultTransportRetries + 1
	}
	return p.MaxRetries + 1
}

// HTTPTransport speaks the daemon's shard endpoints.
type HTTPTransport struct {
	// Base is the daemon address, e.g. "http://127.0.0.1:7070".
	Base string
	// Tenant and Campaign select the sharded job.
	Tenant, Campaign string
	// Token authenticates the worker when the daemon runs with
	// -shard-token; sent as a bearer token on every call.
	Token string
	// Client defaults to http.DefaultClient. Chaos tests install a
	// client whose RoundTripper injects network faults.
	Client *http.Client
	// CallTimeout is the deadline of a lease, heartbeat or hello call
	// (DefaultCallTimeout when zero); a report call gets
	// DefaultReportTimeout. Both layer under any caller deadline: the
	// effective deadline is whichever expires first.
	CallTimeout time.Duration
	// Retry bounds the retryable-failure loop.
	Retry RetryPolicy

	mu  sync.Mutex
	rng *rand.Rand
}

// sleepRetry draws a jittered backoff for attempt n and sleeps it,
// returning false when ctx ends first.
func (t *HTTPTransport) sleepRetry(ctx context.Context, n int) bool {
	t.mu.Lock()
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(t.Retry.Seed))
	}
	d := core.Backoff(n, t.Retry.BackoffBase, t.Retry.BackoffMax, DefaultTransportBackoff, DefaultTransportBackoffMax, t.rng)
	t.mu.Unlock()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func (t *HTTPTransport) timeout(action string) time.Duration {
	if action == "report" {
		return DefaultReportTimeout
	}
	if t.CallTimeout > 0 {
		return t.CallTimeout
	}
	return DefaultCallTimeout
}

// Content types of the protocol's request bodies.
const (
	jsonContentType = "application/json"
	// FrameContentType marks a report body as a frame (frame.go).
	FrameContentType = "application/vnd.goofi.shard-report"
)

// post performs one JSON protocol call.
func (t *HTTPTransport) post(ctx context.Context, action string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return t.call(ctx, action, jsonContentType, body, resp)
}

// call performs one protocol call with deadline, classification and
// retry. The request body is encoded once and replayed byte-identical
// on every attempt — for reports that keeps the idempotency key stable,
// which is what lets the coordinator dedupe a delivery whose first
// acknowledgement was lost.
func (t *HTTPTransport) call(ctx context.Context, action, contentType string, body []byte, resp any) error {
	url := fmt.Sprintf("%s/api/v1/shards/%s/%s/%s", t.Base, t.Tenant, t.Campaign, action)
	attempts := t.Retry.maxAttempts()
	for attempt := 1; ; attempt++ {
		err := t.once(ctx, action, url, contentType, body, resp)
		if err == nil {
			return nil
		}
		if !Retryable(err) || ctx.Err() != nil {
			return err
		}
		if attempt >= attempts {
			return err
		}
		class := ClassConn
		if te, ok := errAs[*TransportError](err); ok {
			class = te.Class
		}
		retryCounter(class).Inc()
		if !t.sleepRetry(ctx, attempt+1) {
			return ctx.Err()
		}
	}
}

// once is a single attempt: one request, one classified outcome.
func (t *HTTPTransport) once(ctx context.Context, action, url, contentType string, body []byte, resp any) error {
	callCtx, cancel := context.WithTimeout(ctx, t.timeout(action))
	defer cancel()
	hr, err := http.NewRequestWithContext(callCtx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", contentType)
	if t.Token != "" {
		hr.Header.Set("Authorization", "Bearer "+t.Token)
	}
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	res, err := client.Do(hr)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's context ended; don't dress it up as a fault.
			return ctx.Err()
		}
		te := classifyNetErr(action, err)
		if te.Class == ClassTimeout {
			mTimeouts.Inc()
		}
		return te
	}
	// Whatever happens below, the body is drained and closed so the
	// keep-alive connection is reusable for the retry or the next call.
	limited := io.LimitReader(res.Body, maxResponseBytes)
	defer func() {
		_, _ = io.Copy(io.Discard, limited)
		res.Body.Close()
	}()
	if res.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(limited, errSnippetBytes))
		return classifyStatus(action, res.StatusCode, cleanSnippet(snippet))
	}
	if resp == nil {
		return nil
	}
	if err := json.NewDecoder(limited).Decode(resp); err != nil {
		// A truncated or garbled 200 body usually means the connection
		// died mid-response; the request may well have been processed,
		// which is exactly what the idempotency key absorbs on retry.
		return &TransportError{Op: action, Class: ClassDecode, Retryable: true, Err: err}
	}
	return nil
}

// cleanSnippet flattens an error-body snippet to one printable line.
func cleanSnippet(b []byte) string {
	s := strings.Join(strings.Fields(string(b)), " ")
	if len(s) > errSnippetBytes {
		s = s[:errSnippetBytes]
	}
	return s
}

func (t *HTTPTransport) Hello(ctx context.Context, req HelloRequest) (*HelloResponse, error) {
	var resp HelloResponse
	if err := t.post(ctx, "hello", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (t *HTTPTransport) Lease(ctx context.Context, req LeaseRequest) (*LeaseResponse, error) {
	var resp LeaseResponse
	if err := t.post(ctx, "lease", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (t *HTTPTransport) Heartbeat(ctx context.Context, req HeartbeatRequest) error {
	var resp struct{}
	return t.post(ctx, "heartbeat", req, &resp)
}

func (t *HTTPTransport) Report(ctx context.Context, req ReportRequest) (*ReportResponse, error) {
	var resp ReportResponse
	if err := t.call(ctx, "report", FrameContentType, EncodeReport(&req), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
