package shard

// Transport-layer pins: every failure mode a worker can see maps to the
// right retryable-vs-terminal classification, retries actually happen
// (and stop) where they should, and a retried report delivery merges
// exactly once.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/faultmodel"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// fastTransport builds a client against base with a fast, deterministic
// retry policy so the tests spend no real time backing off.
func fastTransport(base string, retries int) *HTTPTransport {
	return &HTTPTransport{
		Base: base, Tenant: "t", Campaign: "c",
		Retry: RetryPolicy{
			MaxRetries:  retries,
			BackoffBase: time.Millisecond,
			BackoffMax:  2 * time.Millisecond,
			Seed:        1,
		},
	}
}

func TestTransportErrorClassification(t *testing.T) {
	okBody := `{"status":"wait"}`
	cases := []struct {
		name    string
		status  []int // per-attempt response status; last repeats
		body    string
		retries int
		// expectations
		wantErrIs     error  // sentinel matched with errors.Is (nil: none)
		wantRetryable bool   // Retryable(err) for a non-nil error
		wantClass     string // TransportError class ("" skips)
		wantCalls     int32
		wantOK        bool
	}{
		{name: "401-terminal", status: []int{401}, retries: 3,
			wantErrIs: ErrUnauthorized, wantCalls: 1},
		{name: "409-bad-lease", status: []int{409}, retries: 3,
			wantErrIs: ErrBadLease, wantCalls: 1},
		{name: "404-bad-lease", status: []int{404}, retries: 3,
			wantErrIs: ErrBadLease, wantCalls: 1},
		{name: "400-terminal", status: []int{400}, body: `{"error":"bad plan"}`, retries: 3,
			wantClass: ClassStatus, wantCalls: 1},
		{name: "426-protocol", status: []int{426}, body: `{"error":"worker speaks version 1"}`, retries: 3,
			wantErrIs: ErrProtocol, wantCalls: 1},
		{name: "415-protocol", status: []int{415}, body: `{"error":"report bodies are frames"}`, retries: 3,
			wantErrIs: ErrProtocol, wantCalls: 1},
		{name: "500-retry-then-success", status: []int{500, 500, 200}, retries: 3,
			wantOK: true, wantCalls: 3},
		{name: "500-exhausted", status: []int{500}, retries: 2,
			wantRetryable: true, wantClass: ClassStatus, wantCalls: 3},
		{name: "truncated-json-retries", status: []int{200}, body: `{"status":`, retries: 1,
			wantRetryable: true, wantClass: ClassDecode, wantCalls: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				n := int(calls.Add(1))
				status := tc.status[len(tc.status)-1]
				if n <= len(tc.status) {
					status = tc.status[n-1]
				}
				w.WriteHeader(status)
				body := tc.body
				if body == "" && status == 200 {
					body = okBody
				}
				fmt.Fprint(w, body)
			}))
			defer ts.Close()
			tr := fastTransport(ts.URL, tc.retries)
			_, err := tr.Lease(context.Background(), LeaseRequest{Worker: "w"})
			if tc.wantOK {
				if err != nil {
					t.Fatalf("want success, got %v", err)
				}
			} else if err == nil {
				t.Fatal("want an error, got success")
			}
			if tc.wantErrIs != nil && !errors.Is(err, tc.wantErrIs) {
				t.Fatalf("err = %v, want %v", err, tc.wantErrIs)
			}
			if err != nil && tc.wantErrIs == nil {
				if got := Retryable(err); got != tc.wantRetryable {
					t.Fatalf("Retryable(%v) = %v, want %v", err, got, tc.wantRetryable)
				}
				var te *TransportError
				if tc.wantClass != "" {
					if !errors.As(err, &te) {
						t.Fatalf("err %v is not a TransportError", err)
					}
					if te.Class != tc.wantClass {
						t.Fatalf("class = %q, want %q", te.Class, tc.wantClass)
					}
				}
			}
			if got := calls.Load(); got != tc.wantCalls {
				t.Fatalf("server saw %d calls, want %d", got, tc.wantCalls)
			}
		})
	}
}

func TestTransportTimeoutClassified(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release)            // unblock the handler before Close waits on it
	tr := fastTransport(ts.URL, -1) // no retries: one classified attempt
	tr.CallTimeout = 20 * time.Millisecond
	_, err := tr.Lease(context.Background(), LeaseRequest{Worker: "w"})
	if err == nil {
		t.Fatal("want a timeout error, got success")
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err %v is not a TransportError", err)
	}
	if te.Class != ClassTimeout || !te.Timeout() {
		t.Fatalf("class = %q (Timeout()=%v), want %q", te.Class, te.Timeout(), ClassTimeout)
	}
	if !Retryable(err) {
		t.Fatal("a per-call timeout must be retryable")
	}
}

func TestTransportConnRefusedRetryable(t *testing.T) {
	ts := httptest.NewServer(http.NewServeMux())
	ts.Close() // the address is now guaranteed dead
	tr := fastTransport(ts.URL, -1)
	_, err := tr.Lease(context.Background(), LeaseRequest{Worker: "w"})
	if err == nil {
		t.Fatal("want a connection error, got success")
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err %v is not a TransportError", err)
	}
	if te.Class != ClassConn || !te.Retryable {
		t.Fatalf("class = %q retryable=%v, want %q retryable", te.Class, te.Retryable, ClassConn)
	}
}

func TestTransportErrorSnippet(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"bad plan:   too\nmany  shards"}`)
	}))
	defer ts.Close()
	tr := fastTransport(ts.URL, 0)
	_, err := tr.Lease(context.Background(), LeaseRequest{Worker: "w"})
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err %v is not a TransportError", err)
	}
	if !strings.Contains(te.Snippet, "bad plan") || strings.ContainsAny(te.Snippet, "\n") {
		t.Fatalf("snippet %q should carry the flattened response body", te.Snippet)
	}
	if !strings.Contains(err.Error(), "bad plan") {
		t.Fatalf("error text %q should surface the snippet", err.Error())
	}
}

func TestTransportBearerToken(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("Authorization"))
		fmt.Fprint(w, `{"status":"wait"}`)
	}))
	defer ts.Close()
	tr := fastTransport(ts.URL, 0)
	tr.Token = "s3cret"
	if _, err := tr.Lease(context.Background(), LeaseRequest{Worker: "w"}); err != nil {
		t.Fatal(err)
	}
	if h, _ := got.Load().(string); h != "Bearer s3cret" {
		t.Fatalf("Authorization = %q, want the bearer token", h)
	}
}

// simCoordinator builds a coordinator over a throwaway store, for
// protocol-level tests that fabricate records.
func simCoordinator(t *testing.T, n, shards int) (*Coordinator, *campaign.Store, string) {
	t.Helper()
	return simCoordinatorWith(t, n, shards, func(*CoordinatorConfig) {})
}

// simCoordinatorWith is simCoordinator with the rest of the config (the
// cadence, the clock) left to tune.
func simCoordinatorWith(t *testing.T, n, shards int, tune func(*CoordinatorConfig)) (*Coordinator, *campaign.Store, string) {
	t.Helper()
	name := "deliv"
	db, err := sqldb.OpenAt(filepath.Join(t.TempDir(), "deliv.db"), sqldb.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	st, err := campaign.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	tsd := scifi.TargetSystemData("thor-board")
	if err := st.PutTargetSystem(tsd); err != nil {
		t.Fatal(err)
	}
	camp := &campaign.Campaign{
		Name:           name,
		TargetName:     "thor-board",
		ChainName:      "internal",
		Locations:      []string{"cpu"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient, Multiplicity: 1},
		Trigger:        trigger.Spec{Kind: "cycle", Occurrence: 1},
		RandomWindow:   [2]uint64{10, 100},
		NumExperiments: n,
		Seed:           1,
		Termination:    campaign.Termination{TimeoutCycles: 1000},
		Workload:       workload.All()["sort16"],
		LogMode:        campaign.LogNormal,
	}
	if err := st.PutCampaign(camp); err != nil {
		t.Fatal(err)
	}
	cfg := CoordinatorConfig{Store: st, Campaign: camp, Target: tsd, Shards: shards}
	tune(&cfg)
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord, st, name
}

// TestReportDeliveryIdempotent pins the idempotency-key contract: a
// retried delivery — same key, same payload — is acknowledged with the
// first response and merged exactly once, including a retried final
// report whose first copy already retired the lease.
func TestReportDeliveryIdempotent(t *testing.T) {
	const n = 6
	coord, st, name := simCoordinator(t, n, 1)
	lease := coord.Lease(context.Background(), LeaseRequest{Worker: "w"})
	if lease.Status != LeaseRange {
		t.Fatalf("lease status = %q", lease.Status)
	}

	stream := ReportRequest{
		Worker: "w", LeaseID: lease.LeaseID, Delivery: "w/l/1",
		Rows: []campaign.Row{
			simRecord(name, -1), simRecord(name, 0), simRecord(name, 1),
		},
	}
	first, err := coord.Report(stream)
	if err != nil {
		t.Fatal(err)
	}
	if first.Accepted != 3 {
		t.Fatalf("first delivery accepted %d, want 3", first.Accepted)
	}
	mergedBefore, _ := coord.Progress()
	retried, err := coord.Report(stream)
	if err != nil {
		t.Fatalf("retried delivery: %v", err)
	}
	if retried != first {
		t.Fatalf("retried ack %+v differs from original %+v", retried, first)
	}
	if merged, _ := coord.Progress(); merged != mergedBefore {
		t.Fatalf("retried delivery advanced the merge: %d -> %d", mergedBefore, merged)
	}

	// A re-send WITHOUT a key must also merge nothing (the two-pass
	// filter), though its ack counts zero fresh records.
	unkeyed := stream
	unkeyed.Delivery = ""
	resp, err := coord.Report(unkeyed)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 0 {
		t.Fatalf("unkeyed duplicate accepted %d records, want 0", resp.Accepted)
	}

	final := ReportRequest{
		Worker: "w", LeaseID: lease.LeaseID, Final: true, Delivery: "w/l/2",
		Rows: []campaign.Row{
			simRecord(name, 2), simRecord(name, 3), simRecord(name, 4), simRecord(name, 5),
		},
	}
	finResp, err := coord.Report(final)
	if err != nil {
		t.Fatal(err)
	}
	// The lease is retired now; an unkeyed retry would get ErrBadLease.
	// The keyed retry must be re-acked from the cache instead.
	finRetry, err := coord.Report(final)
	if err != nil {
		t.Fatalf("retried final delivery after lease retirement: %v", err)
	}
	if finRetry != finResp {
		t.Fatalf("retried final ack %+v differs from original %+v", finRetry, finResp)
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("campaign should be complete")
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Experiments(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n+1 {
		t.Fatalf("store has %d records, want %d (+reference): duplicates merged?", len(recs), n+1)
	}
}
