package shard

// Transport error classification. Every failure a worker can see while
// talking to its coordinator falls into one of two buckets:
//
//   - terminal: the protocol itself rejected the call. ErrBadLease
//     (409/404 — the lease expired or predates a coordinator restart),
//     ErrUnauthorized (401 — the worker's token is wrong) and
//     ErrProtocol (426/415 — the two sides are different builds) cannot
//     be fixed by resending the same request, so the retry loop returns
//     them immediately and the worker changes behaviour (abandon the
//     range, or exit).
//   - retryable: the network or the daemon hiccuped. Timeouts,
//     connection resets/refusals, 5xx responses, and truncated JSON
//     bodies are all faults a later attempt can outlive, so the client
//     retries them with capped exponential backoff.
//
// The split matters for exactly-once semantics: a retryable failure on
// a report may mean the coordinator already merged the batch and only
// the acknowledgement was lost, which is why retried reports carry the
// same idempotency key (ReportRequest.Delivery) — the coordinator
// re-acknowledges instead of re-merging.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
)

// ErrUnauthorized rejects a worker whose shard token does not match the
// daemon's. It is terminal: no retry of the same credentials can
// succeed, so the worker reports the failure and exits instead of
// hammering the coordinator.
var ErrUnauthorized = errors.New("shard: worker not authorized (bad or missing token)")

// ErrReferenceMismatch refuses a report whose rows were run against another
// reference than the campaign's merged one: a worker of another build, or a
// target that does not reproduce the reference. The coordinator quarantines
// the worker and re-queues its range; the refusal wraps ErrBadLease, so the
// worker abandons the range like any lease it lost.
var ErrReferenceMismatch = fmt.Errorf("shard: rows against another reference (%w)", ErrBadLease)

// Error classes reported in the transport retry metrics.
const (
	ClassTimeout = "timeout"
	ClassConn    = "conn"
	ClassStatus  = "status"
	ClassDecode  = "decode"
)

// TransportError is a classified transport-layer failure: what was
// attempted, what came back, and whether resending can help. A response
// snippet rides along so a worker's log shows what the daemon actually
// said, not just the status code.
type TransportError struct {
	// Op is the protocol verb ("lease", "heartbeat", "report", "hello").
	Op string
	// Status is the HTTP status code, 0 for network-level failures.
	Status int
	// Class is the retry-metric class (timeout, conn, status, decode).
	Class string
	// Retryable reports whether a later attempt can succeed.
	Retryable bool
	// Snippet is the start of the response body, when there was one.
	Snippet string
	// Err is the underlying cause, when there was one.
	Err error
}

func (e *TransportError) Error() string {
	msg := fmt.Sprintf("shard: %s", e.Op)
	switch {
	case e.Status != 0:
		msg += fmt.Sprintf(": status %d", e.Status)
	case e.Err != nil:
		msg += ": " + e.Err.Error()
	}
	if e.Snippet != "" {
		msg += fmt.Sprintf(" (%q)", e.Snippet)
	}
	if e.Retryable {
		msg += " [retryable]"
	}
	return msg
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *TransportError) Unwrap() error { return e.Err }

// Timeout reports whether the failure was a deadline (net.Error shape,
// so callers can keep using errors.As with net.Error).
func (e *TransportError) Timeout() bool { return e.Class == ClassTimeout }

// Retryable classifies any transport error: terminal protocol errors
// (ErrBadLease, ErrUnauthorized, ErrProtocol, context cancellation) are not, a
// TransportError answers for itself, and anything else — an unknown
// wrapper around a network failure — defaults to retryable, matching
// the worker's historical treat-unknown-as-transient behaviour.
func Retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrBadLease), errors.Is(err, ErrUnauthorized), errors.Is(err, ErrProtocol):
		return false
	case errors.Is(err, context.Canceled):
		return false
	}
	var te *TransportError
	if errors.As(err, &te) {
		return te.Retryable
	}
	return true
}

// timeoutErr is the net.Error-shaped subset we classify as a timeout.
type timeoutErr interface{ Timeout() bool }

// classifyNetErr converts a client.Do failure into a TransportError.
// Deadlines (the per-call timeout firing, or any net.Error that calls
// itself a timeout) are the timeout class; everything else — refused
// connections, resets, unexpected EOF — is the conn class. Both retry.
func classifyNetErr(op string, err error) *TransportError {
	class := ClassConn
	if te, ok := errAs[timeoutErr](err); ok && te.Timeout() {
		class = ClassTimeout
	} else if errors.Is(err, context.DeadlineExceeded) {
		class = ClassTimeout
	}
	return &TransportError{Op: op, Class: class, Retryable: true, Err: err}
}

// classifyStatus maps a non-200 response to its protocol meaning.
func classifyStatus(op string, status int, snippet string) error {
	switch {
	case status == http.StatusUnauthorized:
		return ErrUnauthorized
	case status == http.StatusConflict || status == http.StatusNotFound:
		// The daemon maps ErrBadLease (and a job it no longer tracks)
		// onto these: the worker must abandon, not retry.
		return ErrBadLease
	case status == http.StatusUpgradeRequired || status == http.StatusUnsupportedMediaType:
		// The daemon refused this build's hello (426) or the shape of its
		// report body (415); its sentence says which versions met.
		return fmt.Errorf("%w: %s: %s", ErrProtocol, op, snippet)
	case status >= 500:
		return &TransportError{Op: op, Status: status, Class: ClassStatus,
			Retryable: true, Snippet: snippet}
	default:
		return &TransportError{Op: op, Status: status, Class: ClassStatus,
			Retryable: false, Snippet: snippet}
	}
}

// errAs is errors.As with a type parameter (no *target juggling).
func errAs[T any](err error) (T, bool) {
	var t T
	ok := errors.As(err, &t)
	return t, ok
}
