package chaos

// Network chaos for the shard transport: the same philosophy as the
// harness fault model in chaos.go — deterministic, seeded, budgeted —
// applied to the coordinator/worker wire instead of the scan chain. One
// decision engine (Net) backs two injectors:
//
//   - Net.Transport wraps a shard.Transport (typically shard.Direct),
//     so the partition-tolerance conformance suite can run coordinator
//     and workers in one process while every call crosses a hostile
//     "network".
//   - Net.RoundTripper wraps an http.RoundTripper, so workers on the
//     real HTTP transport against the daemon's handler cross a hostile
//     network too.
//
// Faults are drawn from the engine's own seeded RNG, never from the
// experiment RNG, so a chaos-wrapped sharded campaign draws the exact
// same injection plan as a healthy one — after retries and lease
// requeues, the merged records must be byte-identical to a solo run
// (the netchaos conformance suite enforces this).
//
// Partitions are scripted, not probabilistic: tests call
// PartitionFull/PartitionAsym/Heal at chosen moments. A full partition
// drops requests before they reach the far side; an asymmetric
// partition lets requests through and loses the responses — the case
// that makes idempotency keys earn their keep, because the coordinator
// has processed a report whose acknowledgement the worker never saw.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"goofi/internal/shard"
)

// Partition states.
const (
	partitionNone = iota
	partitionFull
	partitionAsym
)

// NetConfig tunes the network fault model. All probabilities are per
// transport call, in [0, 1].
type NetConfig struct {
	// Seed drives all network-chaos randomness; same seed, same
	// decision sequence.
	Seed int64
	// DropRequestProb is the probability a call is dropped before it
	// reaches the far side (a lost request packet).
	DropRequestProb float64
	// DropResponseProb is the probability the far side processes the
	// call but the response is lost (a lost ack). This is the fault the
	// report idempotency key exists for.
	DropResponseProb float64
	// DelayProb is the probability a call is delayed by Delay before it
	// proceeds (congestion, not loss).
	DelayProb float64
	// Delay is the added latency when the delay fault fires
	// (default 20ms).
	Delay time.Duration
	// DuplicateProb is the probability a call is delivered twice —
	// applied to report and heartbeat calls only, mirroring how a
	// retransmit race duplicates idempotent traffic. (Duplicating a
	// lease would grant a range to a ghost and strand it until TTL.)
	DuplicateProb float64
	// TruncateProb is the probability a response is cut off mid-body,
	// so the caller sees a decode failure for a call the far side has
	// already processed.
	TruncateProb float64
	// MaxFaults caps the total number of injected probabilistic faults
	// (0 = unlimited). Scripted partitions are not charged against it.
	MaxFaults int
}

// Net is the seeded decision engine shared by the transport wrapper and
// the RoundTripper. It is safe for concurrent use: a worker's heartbeat
// and streaming pumps hit it from separate goroutines.
type Net struct {
	cfg NetConfig

	mu        sync.Mutex
	rng       *rand.Rand
	faults    int
	partition int
}

// NewNet builds a network-chaos engine.
func NewNet(cfg NetConfig) *Net {
	if cfg.Delay <= 0 {
		cfg.Delay = 20 * time.Millisecond
	}
	return &Net{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Faults reports how many network faults have been injected so far
// (probabilistic faults plus partition-dropped calls).
func (n *Net) Faults() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.faults
}

// PartitionFull starts a full partition: every call is dropped before
// it reaches the far side.
func (n *Net) PartitionFull() { n.setPartition(partitionFull) }

// PartitionAsym starts an asymmetric partition: calls reach the far
// side and are processed, but every response is lost.
func (n *Net) PartitionAsym() { n.setPartition(partitionAsym) }

// Heal ends any partition.
func (n *Net) Heal() { n.setPartition(partitionNone) }

func (n *Net) setPartition(state int) {
	n.mu.Lock()
	n.partition = state
	n.mu.Unlock()
}

// netDecision is one call's worth of fault draws, taken under the lock
// in a fixed order so the schedule depends only on the seed and the
// call sequence.
type netDecision struct {
	dropRequest  bool
	dropResponse bool
	delay        bool
	duplicate    bool
	truncate     bool
}

// decide draws the fault plan for one call. dupEligible marks calls
// where duplication is meaningful (report, heartbeat).
func (n *Net) decide(dupEligible bool) netDecision {
	n.mu.Lock()
	defer n.mu.Unlock()
	var d netDecision
	switch n.partition {
	case partitionFull:
		n.faults++
		mNetFaultsPartition.Inc()
		d.dropRequest = true
		return d
	case partitionAsym:
		n.faults++
		mNetFaultsPartition.Inc()
		d.dropResponse = true
		return d
	}
	d.dropRequest = n.fireLocked(n.cfg.DropRequestProb, mNetFaultsDropReq)
	if d.dropRequest {
		return d
	}
	d.dropResponse = n.fireLocked(n.cfg.DropResponseProb, mNetFaultsDropResp)
	d.delay = n.fireLocked(n.cfg.DelayProb, mNetFaultsDelay)
	if dupEligible {
		d.duplicate = n.fireLocked(n.cfg.DuplicateProb, mNetFaultsDup)
	}
	if !d.dropResponse {
		d.truncate = n.fireLocked(n.cfg.TruncateProb, mNetFaultsTruncate)
	}
	return d
}

// fireLocked draws one fault decision, honouring the MaxFaults budget.
// Callers hold n.mu.
func (n *Net) fireLocked(p float64, kind interface{ Inc() }) bool {
	if p <= 0 || (n.cfg.MaxFaults > 0 && n.faults >= n.cfg.MaxFaults) {
		return false
	}
	if n.rng.Float64() >= p {
		return false
	}
	n.faults++
	kind.Inc()
	return true
}

// sleep waits the configured delay, cut short if ctx ends.
func (n *Net) sleep(ctx context.Context) {
	t := time.NewTimer(n.cfg.Delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// dropErr builds the retryable transport error a lost packet presents
// as. kind distinguishes a lost request from a lost response in logs;
// the shard client retries either way.
func dropErr(op, kind string) error {
	return &shard.TransportError{
		Op:        op,
		Class:     shard.ClassConn,
		Retryable: true,
		Err:       fmt.Errorf("chaos: %s dropped", kind),
	}
}

// NetTransport wraps a shard.Transport with the network fault model.
// It is how the conformance suite runs a whole fleet through partitions
// without opening a socket.
type NetTransport struct {
	inner shard.Transport
	net   *Net
}

// Transport wraps a shard.Transport (typically shard.Direct) with this
// engine's fault model.
func (n *Net) Transport(inner shard.Transport) *NetTransport {
	return &NetTransport{inner: inner, net: n}
}

// call runs one faulted call. fn must be re-invocable: a duplicate
// delivers the same request twice, exactly like a retransmit race.
func (t *NetTransport) call(ctx context.Context, op string, dupEligible bool, fn func() error) error {
	d := t.net.decide(dupEligible)
	if d.dropRequest {
		return dropErr(op, "request")
	}
	if d.delay {
		t.net.sleep(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	if d.duplicate {
		// First copy lands; its outcome is discarded like a response
		// beaten by its own retransmit.
		_ = fn()
	}
	err := fn()
	if err != nil {
		return err
	}
	if d.dropResponse {
		return dropErr(op, "response")
	}
	if d.truncate {
		return &shard.TransportError{
			Op:        op,
			Class:     shard.ClassDecode,
			Retryable: true,
			Err:       fmt.Errorf("chaos: response truncated"),
		}
	}
	return nil
}

// Hello implements shard.Transport.
func (t *NetTransport) Hello(ctx context.Context, req shard.HelloRequest) (*shard.HelloResponse, error) {
	var resp *shard.HelloResponse
	err := t.call(ctx, "hello", false, func() error {
		var e error
		resp, e = t.inner.Hello(ctx, req)
		return e
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// Lease implements shard.Transport.
func (t *NetTransport) Lease(ctx context.Context, req shard.LeaseRequest) (*shard.LeaseResponse, error) {
	var resp *shard.LeaseResponse
	err := t.call(ctx, "lease", false, func() error {
		var e error
		resp, e = t.inner.Lease(ctx, req)
		return e
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// Heartbeat implements shard.Transport.
func (t *NetTransport) Heartbeat(ctx context.Context, req shard.HeartbeatRequest) error {
	return t.call(ctx, "heartbeat", true, func() error {
		return t.inner.Heartbeat(ctx, req)
	})
}

// Report implements shard.Transport. A dropped or truncated response
// here is the canonical idempotency-key scenario: the coordinator has
// merged the batch, the worker retries the identical delivery, and the
// coordinator must re-ack without re-merging.
func (t *NetTransport) Report(ctx context.Context, req shard.ReportRequest) (*shard.ReportResponse, error) {
	var resp *shard.ReportResponse
	err := t.call(ctx, "report", true, func() error {
		var e error
		resp, e = t.inner.Report(ctx, req)
		return e
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

var _ shard.Transport = (*NetTransport)(nil)

// RoundTripper wraps an http.RoundTripper with this engine's fault
// model, for workers on the HTTP transport. Use it as the transport of
// the http.Client handed to shard.HTTPTransport.
func (n *Net) RoundTripper(inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &netRoundTripper{inner: inner, net: n}
}

type netRoundTripper struct {
	inner http.RoundTripper
	net   *Net
}

// RoundTrip implements http.RoundTripper. Dropped requests surface as
// transport errors (which http.Client wraps in *url.Error, classified
// retryable by the shard client); dropped responses perform the request
// so the server processes it, then lose the answer; truncation hands
// the caller half the body.
func (rt *netRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	d := rt.net.decide(dupEligibleHTTP(req))
	if d.dropRequest {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("chaos: request dropped")
	}
	if d.delay {
		rt.net.sleep(req.Context())
		if err := req.Context().Err(); err != nil {
			return nil, err
		}
	}
	if d.duplicate && req.GetBody != nil {
		if dup := cloneRequest(req); dup != nil {
			if res, err := rt.inner.RoundTrip(dup); err == nil {
				// The duplicate's response is the one that loses the race.
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
			}
		}
	}
	res, err := rt.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if d.dropResponse {
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		return nil, fmt.Errorf("chaos: response dropped")
	}
	if d.truncate {
		if terr := truncateBody(res); terr != nil {
			return nil, terr
		}
	}
	return res, nil
}

// dupEligibleHTTP matches the transport-wrapper rule: only report and
// heartbeat calls are duplicated.
func dupEligibleHTTP(req *http.Request) bool {
	p := req.URL.Path
	return len(p) >= 7 && (p[len(p)-7:] == "/report" || (len(p) >= 10 && p[len(p)-10:] == "/heartbeat"))
}

// cloneRequest builds a replayable copy of req via GetBody.
func cloneRequest(req *http.Request) *http.Request {
	body, err := req.GetBody()
	if err != nil {
		return nil
	}
	dup := req.Clone(req.Context())
	dup.Body = body
	return dup
}

// truncateBody replaces the response body with its first half, so the
// caller's JSON decode fails the way a connection dying mid-response
// makes it fail.
func truncateBody(res *http.Response) error {
	b, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return err
	}
	half := b[:len(b)/2]
	res.Body = io.NopCloser(bytes.NewReader(half))
	res.ContentLength = int64(len(half))
	res.Header.Del("Content-Length")
	return nil
}
