package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/faultmodel"
	"goofi/internal/sqldb"
	"goofi/internal/telemetry"
	"goofi/internal/trigger"
)

// The hand-over stage (scheduler.go): one goroutine classifies the run's
// items at most a window ahead and hands every row to the sink in plan
// order; the boards only emulate. These tests are the ones `make tier1`
// repeats under the race detector.

// rowCounter counts the experiments' end rows handed to the sink behind it.
type rowCounter struct {
	ResultSink
	rows atomic.Int64
}

func (s *rowCounter) LogExperiment(rec *campaign.ExperimentRecord) error {
	err := s.ResultSink.LogExperiment(rec)
	if rec.Data.Seq >= 0 && rec.Step < 0 {
		s.rows.Add(1)
	}
	return err
}

// leadWatch records, at each item's classification and at each board's
// start of an experiment, how far the item is ahead of the rows handed
// over, and flags any lead of a whole window or more.
type leadWatch struct {
	handed *atomic.Int64
	max    atomic.Int64
	over   atomic.Int64
}

func (w *leadWatch) see(idx int) {
	lead := int64(idx) - w.handed.Load()
	for m := w.max.Load(); lead > m && !w.max.CompareAndSwap(m, lead); m = w.max.Load() {
	}
	if lead >= campaign.QueueRows {
		w.over.Add(1)
	}
}

// countedTable is a def-use table that reports each classification — the
// classifier asks InjectionPoint once per item, in plan order — to watch.
type countedTable struct {
	DefUseTable
	watch *leadWatch
	asked *int
}

func (d countedTable) InjectionPoint(at uint64, byInstret bool) (int, uint64, bool) {
	d.watch.see(*d.asked)
	*d.asked++
	return d.DefUseTable.InjectionPoint(at, byInstret)
}

// watchedTarget reports each experiment a board starts to watch.
type watchedTarget struct {
	*forwardingFake
	watch *leadWatch
}

func (w *watchedTarget) InitTestCard(ex *Experiment) error {
	if !ex.IsReference() {
		w.watch.see(ex.Seq)
	}
	return w.forwardingFake.InitTestCard(ex)
}

// stallingSink holds the hand-over at one row until the boards have run a
// whole window ahead of it (or a deadline passes).
type stallingSink struct {
	*rowCounter
	at    int64
	watch *leadWatch
}

func (s *stallingSink) LogExperiment(rec *campaign.ExperimentRecord) error {
	if rec.Data.Seq >= 0 && rec.Step < 0 && s.rows.Load() == s.at {
		for deadline := time.Now().Add(5 * time.Second); s.watch.max.Load() < campaign.QueueRows-1 &&
			time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return s.rowCounter.LogExperiment(rec)
}

// TestHandOverWindowBound: neither the classifier nor a board is ever a
// window (campaign.QueueRows items) or more ahead of the rows handed over —
// and with the hand-over held at one row, the boards run right up to it.
func TestHandOverWindowBound(t *testing.T) {
	const n = 3 * campaign.QueueRows
	for _, boards := range []int{1, 3} {
		t.Run(fmt.Sprintf("boards=%d", boards), func(t *testing.T) {
			camp := fakeCampaign(n)
			counter := &rowCounter{ResultSink: storeWithCampaign(t, camp)}
			watch := &leadWatch{handed: &counter.rows}
			sink := &stallingSink{rowCounter: counter, at: 5, watch: watch}
			table := countedTable{DefUseTable: fakeTargetUses(), watch: watch, asked: new(int)}
			factory := func() TargetSystem {
				return &watchedTarget{forwardingFake: &forwardingFake{fakeTarget: newFakeTarget(), table: table}, watch: watch}
			}
			r, err := NewRunner(factory(), SCIFI, camp, fakeTSD(), WithSink(sink), WithBoards(boards, factory))
			if err != nil {
				t.Fatal(err)
			}
			sum, err := r.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if sum.Experiments != n || sum.Pruned.Total() == 0 || sum.Pruned.Total() == n {
				t.Fatalf("%d experiments, %d pruned: want %d of both kinds", sum.Experiments, sum.Pruned.Total(), n)
			}
			if *table.asked != n {
				t.Fatalf("%d classifications, want %d", *table.asked, n)
			}
			if over, max := watch.over.Load(), watch.max.Load(); over != 0 || max != campaign.QueueRows-1 {
				t.Errorf("%d items a window or more ahead; the longest lead %d, want %d", over, max, campaign.QueueRows-1)
			}
		})
	}
}

// TestHandOverStopAfterRows: a Stop as the sink takes row k ends
// the run with exactly rows 0..k-1 stored, a cursor, and rows 0..k-1 what
// recovery finds complete, on any board count.
func TestHandOverStopAfterRows(t *testing.T) {
	const k = 37
	for _, boards := range []int{1, 3} {
		t.Run(fmt.Sprintf("boards=%d", boards), func(t *testing.T) {
			camp := fakeCampaign(1000)
			st := storeWithCampaign(t, camp)
			factory := func() TargetSystem { return &forwardingFake{fakeTarget: newFakeTarget(), table: fakeTargetUses()} }
			var r *Runner
			var err error
			sink := rowHook(t, camp, st, func(seen int) {
				if seen == k {
					r.Stop()
				}
			})
			r, err = NewRunner(factory(), SCIFI, camp, fakeTSD(), WithSink(sink), WithBoards(boards, factory),
				WithCheckpoints(8))
			if err != nil {
				t.Fatal(err)
			}
			sum, err := r.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if sum.Experiments != k {
				t.Errorf("summary counts %d experiments, want %d", sum.Experiments, k)
			}
			recs, err := st.Experiments(camp.Name)
			if err != nil {
				t.Fatal(err)
			}
			var seqs []int
			for _, rec := range recs {
				if rec.Data.Seq >= 0 {
					seqs = append(seqs, rec.Data.Seq)
				}
			}
			want := make([]int, k)
			for i := range want {
				want[i] = i
			}
			if !slices.Equal(seqs, want) {
				t.Errorf("stored experiments %v, want 0..%d", seqs, k-1)
			}
			if cp, err := st.GetCheckpoint(camp.Name); err != nil || cp == nil {
				t.Errorf("no cursor (%v)", err)
			}
			if got := recovered(t, st, camp.Name); fmt.Sprint(got) != fmt.Sprint(prefix(k)) {
				t.Errorf("recovered %v complete, want 0..%d", got, k-1)
			}
		})
	}
}

// pausingTarget pauses its runner from the board, in the middle of
// experiment at: a pause that does not come from the hand-over stage, so
// the stage may be waiting for a board's delivery when it arrives.
type pausingTarget struct {
	*fakeTarget
	r  **Runner
	at int
}

func (p *pausingTarget) WaitForTermination(ex *Experiment) error {
	if ex.Seq == p.at {
		(*p.r).Pause()
	}
	return p.fakeTarget.WaitForTermination(ex)
}

// TestHandOverPauseFromBoard: a pause that arrives while the stage waits
// for a board is reported as soon as the rows before it are handed over,
// with a durable cursor; Resume then finishes the plan.
func TestHandOverPauseFromBoard(t *testing.T) {
	const n, at = 200, 57
	for _, boards := range []int{1, 3} {
		t.Run(fmt.Sprintf("boards=%d", boards), func(t *testing.T) {
			camp := fakeCampaign(n)
			st := storeWithCampaign(t, camp)
			var r *Runner
			factory := func() TargetSystem { return &pausingTarget{fakeTarget: newFakeTarget(), r: &r, at: at} }
			prog := telemetry.NewProgress(boards)
			r, err := NewRunner(factory(), SCIFI, camp, fakeTSD(), WithSink(st), WithBoards(boards, factory),
				WithCheckpoints(1000), WithTelemetry(nil, prog))
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := r.Run(context.Background())
				done <- err
			}()
			// The test resumes once it has the pause in hand: the paused
			// phase holds until then, so the run cannot end before the
			// test looks.
			if !waitPhase(prog, "paused") {
				r.Stop()
				t.Fatalf("a pause from a board was never reported (phase %q, run ended: %v)",
					prog.Snapshot().Phase, len(done) > 0)
			}
			if cp, err := st.GetCheckpoint(camp.Name); err != nil || cp == nil {
				t.Errorf("no cursor while paused: %v", err)
			} else if stored := recovered(t, st, camp.Name).Len(); stored < at-campaign.QueueRows {
				t.Errorf("%d experiments durable while paused, the pause came at %d", stored, at)
			}
			r.Resume()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if got, err := st.CountExperiments(camp.Name); err != nil || got != n+1 {
				t.Errorf("%d rows after the resume (%v), want %d", got, err, n+1)
			}
		})
	}
}

// failingLog is a store's log device that keeps what it accepts and
// refuses every write once armed and past its budget: a disk that fills.
type failingLog struct {
	mu     sync.Mutex
	img    []byte
	armed  bool
	budget int
}

func (l *failingLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.armed {
		if l.budget <= 0 {
			return 0, fmt.Errorf("disk full")
		}
		l.budget--
	}
	l.img = append(l.img, p...)
	return len(p), nil
}

func (l *failingLog) image() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return bytes.Clone(l.img)
}

// acceptCounter counts the experiments' end rows the sink behind it took.
type acceptCounter struct {
	CheckpointSink
	accepted atomic.Int64
}

func (s *acceptCounter) LogExperiment(rec *campaign.ExperimentRecord) error {
	err := s.CheckpointSink.LogExperiment(rec)
	if err == nil && rec.Data.Seq >= 0 && rec.Step < 0 {
		s.accepted.Add(1)
	}
	return err
}

// TestHandOverPoisonedSink: a batching sink whose store fails in mid-run,
// with the window full of emulated and pruned items. Run returns the
// error, counts no experiment whose row the sink refused, leaves no
// goroutine it started behind, and what reached the disk is a prefix of
// the plan.
func TestHandOverPoisonedSink(t *testing.T) {
	const n = 3 * campaign.QueueRows
	for _, boards := range []int{1, 3} {
		t.Run(fmt.Sprintf("boards=%d", boards), func(t *testing.T) {
			camp := fakeCampaign(n)
			dev := &failingLog{}
			db := sqldb.Open()
			db.AttachWAL(sqldb.NewWAL(dev, sqldb.SyncAlways))
			st := storeOn(t, db, camp)
			dev.mu.Lock()
			dev.armed, dev.budget = true, 30
			dev.mu.Unlock()
			batching := campaign.NewBatchingSink(st, 8)
			defer batching.Close()
			sink := &acceptCounter{CheckpointSink: batching}
			before := runtime.NumGoroutine()

			factory := func() TargetSystem { return &forwardingFake{fakeTarget: newFakeTarget(), table: fakeTargetUses()} }
			r, err := NewRunner(factory(), SCIFI, camp, fakeTSD(), WithSink(sink), WithBoards(boards, factory),
				WithCheckpoints(4))
			if err != nil {
				t.Fatal(err)
			}
			type result struct {
				sum *Summary
				err error
			}
			done := make(chan result, 1)
			go func() {
				sum, err := r.Run(context.Background())
				done <- result{sum, err}
			}()
			var res result
			select {
			case res = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("Run did not return after the store failed")
			}
			if res.err == nil {
				t.Fatal("the store failed and Run reported no error")
			}
			if accepted := int(sink.accepted.Load()); res.sum.Experiments > accepted {
				t.Errorf("the summary counts %d experiments, the sink accepted %d of their rows",
					res.sum.Experiments, accepted)
			}
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines outlive Run, %d before it:\n%s",
						runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}

			disk := sqldb.Open()
			if _, err := disk.ReplayWAL(bytes.NewReader(dev.image())); err != nil {
				t.Fatal(err)
			}
			kst := storeOn(t, disk, camp)
			cp, err := kst.GetCheckpoint(camp.Name)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := kst.CountExperiments(camp.Name)
			if err != nil {
				t.Fatal(err)
			}
			if cp == nil || rows < 2 {
				t.Fatalf("no cursor (%+v) or no experiment's row (%d rows) reached the disk: the failure came too early to test", cp, rows)
			}
			if rows-1 >= n {
				t.Fatalf("%d rows on disk: the failure came too late to test", rows)
			}
			if got := recovered(t, kst, camp.Name); fmt.Sprint(got) != fmt.Sprint(prefix(rows-1)) {
				t.Errorf("the rows on disk complete %v, want the prefix 0..%d", got, rows-2)
			}
		})
	}
}

// TestHandOverPrunedSlotAllocs: classifying an item the pruner proves a
// no-op and handing its row over allocates the row, its list of flipped
// bits and its name — and no Experiment (four allocations before the
// stage resolved a pruned slot from its row).
func TestHandOverPrunedSlotAllocs(t *testing.T) {
	ref := refResult()
	r, err := NewRunner(newFakeTarget(), SCIFI, fakeCampaign(1), fakeTSD(), WithSink(plainSink{}))
	if err != nil {
		t.Fatal(err)
	}
	rs := &run{r: r, sum: &Summary{ByStatus: map[campaign.OutcomeStatus]int{}, ByMechanism: map[string]int{}},
		q: newExpQueue(), window: make([]slot, 1)}
	rs.prune = r.newPruner(&ForwardSet{Campaign: "fc", DefUse: fakeTargetUses(), Reference: ref}, loggedState(t, ref))
	qe := queuedExperiment{plannedExperiment: plannedExperiment{seq: 3,
		fault: faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{20}},
		trig:  trigger.Spec{Kind: "cycle", Cycle: 50}}}
	allocs := testing.AllocsPerRun(1000, func() {
		rs.classify(&qe)
		if s := &rs.window[0]; s.class != PrunedLatent || !rs.settle(s) {
			t.Fatal("the slot was not pruned and handed over")
		}
	})
	if allocs > 3 {
		t.Errorf("%v allocations per pruned slot, want at most 3", allocs)
	}
	if rs.sum.Pruned.Latent == 0 || rs.sum.Experiments != rs.sum.Pruned.Latent {
		t.Errorf("summary %+v", rs.sum)
	}
}
