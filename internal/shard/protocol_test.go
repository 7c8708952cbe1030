package shard

// The protocol version handshake: two builds that disagree about the wire
// format find out on hello, in a sentence, and the worker exits — no
// lease, no report that can never land, no retry loop.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"goofi/internal/campaign"
)

func TestHelloRefusesOtherProtocolVersion(t *testing.T) {
	coord, _, _ := simCoordinator(t, 6, 1)
	resp, err := coord.Hello(HelloRequest{Worker: "new", Protocol: ProtocolVersion})
	if err != nil || resp.Protocol != ProtocolVersion {
		t.Fatalf("hello at version %d = %+v, %v", ProtocolVersion, resp, err)
	}
	// A worker from before the version field says 0.
	_, err = coord.Hello(HelloRequest{Worker: "old"})
	if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), "version 0") {
		t.Fatalf("hello at version 0 = %v, want ErrProtocol naming the versions", err)
	}
	if Retryable(err) {
		t.Fatal("a protocol mismatch must not be retried")
	}
	// So is the build before rows could be relative to the reference run:
	// its coordinator would store such rows and fail to analyze them.
	_, err = coord.Hello(HelloRequest{Worker: "absolute-only", Protocol: 3})
	if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("hello at version 3 = %v, want ErrProtocol naming the versions", err)
	}
	// Should it lease regardless, it is sent home, not handed a range.
	if resp := coord.Lease(context.Background(), LeaseRequest{Worker: "old"}); resp.Status != LeaseDone {
		t.Fatalf("lease for a refused worker = %q, want %q", resp.Status, LeaseDone)
	}
	if resp := coord.Lease(context.Background(), LeaseRequest{Worker: "new"}); resp.Status != LeaseRange {
		t.Fatalf("lease for the accepted worker = %q, want %q", resp.Status, LeaseRange)
	}
}

// oldCoordinator answers hello the way a build without the version field
// does and fails the test on anything further.
type oldCoordinator struct {
	Transport
	t *testing.T
}

func (o oldCoordinator) Hello(context.Context, HelloRequest) (*HelloResponse, error) {
	return &HelloResponse{Status: "ok", Workers: 1}, nil
}

func (o oldCoordinator) Lease(context.Context, LeaseRequest) (*LeaseResponse, error) {
	o.t.Error("the worker leased from a coordinator of another protocol version")
	return &LeaseResponse{Status: LeaseDone}, nil
}

func TestWorkerRefusesOtherProtocolVersion(t *testing.T) {
	w, err := NewWorker(WorkerConfig{
		Name: "w", Transport: oldCoordinator{t: t},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = w.Run(ctx)
	if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), "version 0") {
		t.Fatalf("worker against an old coordinator = %v, want ErrProtocol naming the versions", err)
	}
}

// TestRowSinkReadsNothing: a worker keeps no records — not even the
// reference run it logged, which every range runs again — so its sink has
// nothing to read back.
func TestRowSinkReadsNothing(t *testing.T) {
	state := campaign.StateVector{Scan: []byte{1, 2, 3}, Memory: map[string][]byte{"m": {4}}}
	refName := campaign.ReferenceName("c")
	sink := rowSink{rep: newReporter()}
	if err := sink.LogExperiment(&campaign.ExperimentRecord{Name: refName, Campaign: "c", Step: -1,
		Data: campaign.ExperimentData{Seq: -1}, State: state}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{refName, campaign.ExperimentName("c", 0), campaign.ReferenceName("d")} {
		if _, err := sink.GetExperiment(name); err == nil {
			t.Errorf("the sink of a worker that keeps no records read %s", name)
		}
	}
	if rows, _ := sink.rep.take(reportBatch); len(rows) != 1 || rows[0].Name() != refName {
		t.Errorf("the logged reference run queued %d rows for the coordinator, want it alone", len(rows))
	}
}
