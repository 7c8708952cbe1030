package shard

// The coordinator merges through the campaign's write-behind sink. These
// pin what that has to keep: a final report is acknowledged only behind a
// barrier, a failed store write poisons the merge, and a stalled store
// blocks reporters but never the lease protocol's liveness calls.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/sqldb"
)

// logDevice stands under the store's write-ahead log: it records what
// reaches it, and while stalled is non-nil a write announces itself on
// entered and then waits for stalled to close.
type logDevice struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	stalled chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (d *logDevice) Write(p []byte) (int, error) {
	if d.stalled != nil {
		d.once.Do(func() { close(d.entered) })
		<-d.stalled
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.buf.Write(p)
}

func (d *logDevice) String() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.buf.String()
}

type fullDisk struct{}

func (fullDisk) Write([]byte) (int, error) { return 0, fmt.Errorf("simulated disk full") }

func TestFinalReportAckedBehindBarrier(t *testing.T) {
	const n = 4
	coord, st, name := simCoordinator(t, n, 1)
	// The log buffers until a barrier flushes it: what the device has seen
	// when Report returns is what a barrier covered.
	dev := &logDevice{}
	st.DB().AttachWAL(sqldb.NewWAL(dev, sqldb.SyncBarrier))
	lease := coord.Lease(context.Background(), LeaseRequest{Worker: "w"})
	if _, err := coord.Report(ReportRequest{
		Worker: "w", LeaseID: lease.LeaseID, Rows: simRows(name, -1, 0, 1),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Report(ReportRequest{
		Worker: "w", LeaseID: lease.LeaseID, Final: true, Rows: simRows(name, 2, 3),
	}); err != nil {
		t.Fatal(err)
	}
	got := dev.String()
	for seq := 0; seq < n; seq++ {
		if !strings.Contains(got, campaign.ExperimentName(name, seq)) {
			t.Errorf("final report acknowledged before row %d was past a barrier", seq)
		}
	}
}

func TestFailedStoreWritePoisonsMerge(t *testing.T) {
	coord, st, name := simCoordinator(t, 8, 1)
	lease := coord.Lease(context.Background(), LeaseRequest{Worker: "w"})
	st.DB().AttachWAL(sqldb.NewWAL(fullDisk{}, sqldb.SyncAlways))
	// The write is behind the acknowledgement of a streaming report...
	if _, err := coord.Report(ReportRequest{
		Worker: "w", LeaseID: lease.LeaseID, Rows: simRows(name, -1, 0),
	}); err != nil {
		t.Fatalf("streaming report: %v", err)
	}
	// ...so its failure comes back from the next report that waits for the
	// store, and from every one after it.
	for _, final := range []bool{true, false} {
		_, err := coord.Report(ReportRequest{
			Worker: "w", LeaseID: lease.LeaseID, Final: final, Rows: simRows(name, 1),
		})
		if final {
			// The final report retired the lease before it found out.
			lease = coord.Lease(context.Background(), LeaseRequest{Worker: "w"})
		}
		if err == nil || !strings.Contains(err.Error(), "disk full") {
			t.Fatalf("report (final %v) over a failed store returned %v", final, err)
		}
	}
	if err := coord.Err(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Err() = %v after a failed merge write", err)
	}
	if err := coord.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Close() = %v after a failed merge write", err)
	}
}

// TestStalledMergeBlocksOnlyReports: with the store stuck in a write, the
// sink's bounded queue fills and a report waits in it — while heartbeats
// and leases, which a worker needs to keep its lease alive through exactly
// this, are answered at once.
func TestStalledMergeBlocksOnlyReports(t *testing.T) {
	// One-row reports, more of them than the sink lets wait and the writer
	// holds at a time: the last cannot be taken before the store moves.
	const reports = 2*campaign.QueueRows + 1
	coord, st, name := simCoordinatorWith(t, 2*reports, 2, slowBeat)
	lease := coord.Lease(context.Background(), LeaseRequest{Worker: "w0"})
	dev := &logDevice{stalled: make(chan struct{}), entered: make(chan struct{})}
	st.DB().AttachWAL(sqldb.NewWAL(dev, sqldb.SyncAlways))
	// On every way out: the coordinator's cleanup closes the sink, which
	// waits for a writer that stands in dev.Write until this runs.
	release := sync.OnceFunc(func() { close(dev.stalled) })
	defer release()

	var acked atomic.Int32
	reported := make(chan error, 1)
	go func() {
		for seq := 0; seq < reports; seq++ {
			if _, err := coord.Report(ReportRequest{
				Worker: "w0", LeaseID: lease.LeaseID, Rows: simRows(name, seq),
			}); err != nil {
				reported <- err
				return
			}
			acked.Add(1)
		}
		reported <- nil
	}()
	select {
	case <-dev.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the merge never reached the store")
	}

	live := make(chan string, 1)
	go func() {
		if err := coord.Heartbeat(HeartbeatRequest{Worker: "w0", LeaseID: lease.LeaseID}); err != nil {
			live <- "heartbeat: " + err.Error()
			return
		}
		if resp := coord.Lease(context.Background(), LeaseRequest{Worker: "w1"}); resp.Status != LeaseRange {
			live <- "lease status " + resp.Status
			return
		}
		live <- ""
	}()
	select {
	case problem := <-live:
		if problem != "" {
			t.Fatal(problem)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("heartbeat or lease blocked behind a stalled merge")
	}
	select {
	case err := <-reported:
		t.Fatalf("all %d reports were acknowledged (%v) with the store stalled: the queue is not bounded", reports, err)
	default:
	}

	release()
	select {
	case err := <-reported:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("reports still blocked after the store recovered (%d of %d acknowledged)", acked.Load(), reports)
	}
}
