package shard

// Long-polled leases: a Lease that finds every range leased out waits in
// the coordinator and is answered by the next transition of the lease
// state machine, not by the worker's next poll.

import (
	"context"
	"testing"
	"time"

	"goofi/internal/campaign"
)

// slowBeat makes the park limit (a heartbeat period, at most half the
// call timeout) longer than any of these tests: a parked lease that
// returns was woken.
func slowBeat(cfg *CoordinatorConfig) { cfg.HeartbeatEvery = time.Minute }

// parkLease asks for a lease on a goroutine and checks that the call is
// still parked a moment later.
func parkLease(ctx context.Context, t *testing.T, coord *Coordinator, worker string) <-chan LeaseResponse {
	t.Helper()
	got := make(chan LeaseResponse, 1)
	go func() { got <- coord.Lease(ctx, LeaseRequest{Worker: worker}) }()
	select {
	case resp := <-got:
		t.Fatalf("lease answered %q at once, want it parked", resp.Status)
	case <-time.After(50 * time.Millisecond):
	}
	return got
}

// answered waits for a parked lease's answer.
func answered(t *testing.T, got <-chan LeaseResponse) LeaseResponse {
	t.Helper()
	select {
	case resp := <-got:
		return resp
	case <-time.After(5 * time.Second):
		t.Fatal("parked lease was not woken")
		return LeaseResponse{}
	}
}

func simRows(name string, seqs ...int) []campaign.Row {
	rows := make([]campaign.Row, len(seqs))
	for i, seq := range seqs {
		rows[i] = simRecord(name, seq)
	}
	return rows
}

func TestLeaseParkedWokenByFinalReport(t *testing.T) {
	const n = 6
	coord, _, name := simCoordinatorWith(t, n, 1, slowBeat)
	first := coord.Lease(context.Background(), LeaseRequest{Worker: "w0"})
	if first.Status != LeaseRange {
		t.Fatalf("first lease = %q", first.Status)
	}
	parkedBefore := mLeaseParked.Count()

	// A final report that leaves a tail: the waiter gets the remainder.
	got := parkLease(context.Background(), t, coord, "w1")
	if _, err := coord.Report(ReportRequest{
		Worker: "w0", LeaseID: first.LeaseID, Final: true, Rows: simRows(name, -1, 0, 1, 2),
	}); err != nil {
		t.Fatal(err)
	}
	rest := answered(t, got)
	if rest.Status != LeaseRange || rest.Range != (Range{Lo: 3, Hi: n}) {
		t.Fatalf("woken lease = %q %+v, want the requeued remainder [3, %d)", rest.Status, rest.Range, n)
	}

	// A final report that completes the plan: the waiter is sent home.
	got = parkLease(context.Background(), t, coord, "w0")
	if _, err := coord.Report(ReportRequest{
		Worker: "w1", LeaseID: rest.LeaseID, Final: true, Rows: simRows(name, 3, 4, 5),
	}); err != nil {
		t.Fatal(err)
	}
	if resp := answered(t, got); resp.Status != LeaseDone {
		t.Fatalf("lease after the last final report = %q, want %q", resp.Status, LeaseDone)
	}
	if d := mLeaseParked.Count() - parkedBefore; d != 2 {
		t.Fatalf("goofi_shard_lease_parked_seconds observed %d parked leases, want 2", d)
	}
}

func TestLeaseParkedWokenBySweepRequeue(t *testing.T) {
	clock := &simClock{now: time.Unix(1000, 0)}
	coord, _, _ := simCoordinatorWith(t, 6, 1, func(cfg *CoordinatorConfig) {
		slowBeat(cfg)
		cfg.NowFunc = clock.Now
	})
	dead := coord.Lease(context.Background(), LeaseRequest{Worker: "dead"})
	if dead.Status != LeaseRange {
		t.Fatalf("first lease = %q", dead.Status)
	}
	got := parkLease(context.Background(), t, coord, "heir")
	clock.Advance(3*time.Minute + time.Second) // past the TTL of three beats
	coord.Sweep()
	resp := answered(t, got)
	if resp.Status != LeaseRange || resp.Range != dead.Range {
		t.Fatalf("woken lease = %q %+v, want the expired lease's range %+v", resp.Status, resp.Range, dead.Range)
	}
}

func TestLeaseParkedWokenByClose(t *testing.T) {
	coord, _, _ := simCoordinatorWith(t, 6, 1, slowBeat)
	if resp := coord.Lease(context.Background(), LeaseRequest{Worker: "w0"}); resp.Status != LeaseRange {
		t.Fatalf("first lease = %q", resp.Status)
	}
	got := parkLease(context.Background(), t, coord, "w1")
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if resp := answered(t, got); resp.Status != LeaseDone {
		t.Fatalf("lease on a closed coordinator = %q, want %q", resp.Status, LeaseDone)
	}
}

func TestLeaseReturnsWhenItsContextEnds(t *testing.T) {
	coord, _, _ := simCoordinatorWith(t, 6, 1, slowBeat)
	if resp := coord.Lease(context.Background(), LeaseRequest{Worker: "w0"}); resp.Status != LeaseRange {
		t.Fatalf("first lease = %q", resp.Status)
	}
	// A finished context is not parked at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := make(chan LeaseResponse, 1)
	go func() { got <- coord.Lease(ctx, LeaseRequest{Worker: "w1"}) }()
	if resp := answered(t, got); resp.Status != LeaseWait {
		t.Fatalf("lease on a done context = %q, want %q", resp.Status, LeaseWait)
	}
	// A context that ends releases a parked call.
	ctx, cancel = context.WithCancel(context.Background())
	parked := parkLease(ctx, t, coord, "w1")
	cancel()
	if resp := answered(t, parked); resp.Status != LeaseWait {
		t.Fatalf("lease whose context ended = %q, want %q", resp.Status, LeaseWait)
	}
}

// TestLeaseParkLimit: with nothing to wake it, a parked call gives up
// after a heartbeat period — far inside the transport's call timeout.
func TestLeaseParkLimit(t *testing.T) {
	const beat = 40 * time.Millisecond
	coord, _, _ := simCoordinatorWith(t, 6, 1, func(cfg *CoordinatorConfig) { cfg.HeartbeatEvery = beat })
	if resp := coord.Lease(context.Background(), LeaseRequest{Worker: "w0"}); resp.Status != LeaseRange {
		t.Fatalf("first lease = %q", resp.Status)
	}
	start := time.Now()
	resp := coord.Lease(context.Background(), LeaseRequest{Worker: "w1"})
	if d := time.Since(start); resp.Status != LeaseWait || d < beat || d > DefaultCallTimeout/2 {
		t.Fatalf("unwoken lease = %q after %v, want %q after one %v heartbeat", resp.Status, d, LeaseWait, beat)
	}
}
