package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/telemetry"
)

// runCampaignOnBoards executes a fresh campaign on the given board count
// and returns its summary and logged records.
func runCampaignOnBoards(t *testing.T, camp *campaign.Campaign, boards int) (*Summary, []*campaign.ExperimentRecord) {
	t.Helper()
	st := storeWithCampaign(t, camp)
	opts := []RunnerOption{WithSink(st)}
	if boards != 1 {
		opts = append(opts, WithBoards(boards, func() TargetSystem { return newFakeTarget() }))
	}
	r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st.Experiments(camp.Name)
	if err != nil {
		t.Fatal(err)
	}
	return sum, recs
}

// recordBytes flattens a record to its stored representation (JSON data +
// encoded state vector) for byte-level comparison.
func recordBytes(t *testing.T, rec *campaign.ExperimentRecord) []byte {
	t.Helper()
	data, err := json.Marshal(&rec.Data)
	if err != nil {
		t.Fatal(err)
	}
	state, err := rec.State.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return append(append([]byte(rec.Name+"\x00"+rec.Parent+"\x00"), data...), state...)
}

func TestSchedulerOutcomesIdenticalAcrossBoardCounts(t *testing.T) {
	// The plan is drawn before execution, so per-experiment results must
	// be byte-identical whether 1, 2 or 4 boards consume it.
	camp := fakeCampaign(30)
	seqSum, seqRecs := runCampaignOnBoards(t, camp, 1)
	for _, boards := range []int{2, 4} {
		parSum, parRecs := runCampaignOnBoards(t, camp, boards)
		if parSum.Experiments != seqSum.Experiments || parSum.Injected != seqSum.Injected {
			t.Errorf("boards=%d: summaries differ: seq %+v, par %+v", boards, seqSum, parSum)
		}
		for st, n := range seqSum.ByStatus {
			if parSum.ByStatus[st] != n {
				t.Errorf("boards=%d status %v: seq %d, par %d", boards, st, n, parSum.ByStatus[st])
			}
		}
		if len(seqRecs) != len(parRecs) {
			t.Fatalf("boards=%d record counts: seq %d, par %d", boards, len(seqRecs), len(parRecs))
		}
		for i := range seqRecs {
			if !bytes.Equal(recordBytes(t, seqRecs[i]), recordBytes(t, parRecs[i])) {
				t.Errorf("boards=%d: record %s differs from sequential run", boards, seqRecs[i].Name)
			}
		}
	}
}

// TestSchedulerProgressThreadSafe: eight boards update the progress view
// while another goroutine reads it (the race detector's case), and it ends
// counting every experiment.
func TestSchedulerProgressThreadSafe(t *testing.T) {
	camp := fakeCampaign(40)
	prog := telemetry.NewProgress(8)
	r, err := NewRunner(nil, SCIFI, camp, fakeTSD(),
		WithBoards(8, func() TargetSystem { return newFakeTarget() }),
		WithTelemetry(nil, prog))
	if err != nil {
		t.Fatal(err)
	}
	stop, read := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
				prog.Snapshot()
			}
		}
	}()
	sum, err := r.Run(context.Background())
	close(stop)
	<-read
	if err != nil {
		t.Fatal(err)
	}
	if s := prog.Snapshot(); s.Done != 40 || s.Phase != telemetry.PhaseDone || sum.Experiments != 40 {
		t.Errorf("progress %d done, phase %q; experiments %d", s.Done, s.Phase, sum.Experiments)
	}
}

// TestSchedulerPauseResumeStopAcrossBoards is the Fig 7 control-path
// regression: pause, resume and stop behave the same at boards=1 and
// boards=4 — the pause is observed, the campaign completes after resume,
// and a later campaign stops cleanly with a nil error.
func TestSchedulerPauseResumeStopAcrossBoards(t *testing.T) {
	for _, boards := range []int{1, 4} {
		t.Run(fmt.Sprintf("boards=%d", boards), func(t *testing.T) {
			camp := fakeCampaign(10)
			prog := telemetry.NewProgress(boards)
			var r *Runner
			var err error
			opts := []RunnerOption{WithTelemetry(nil, prog), WithSink(rowHook(t, camp, nil, func(k int) {
				if k == 3 {
					r.Pause()
				}
			}))}
			if boards != 1 {
				opts = append(opts, WithBoards(boards, func() TargetSystem { return newFakeTarget() }))
			}
			r, err = NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			sawPause := make(chan bool, 1)
			go func() {
				// Resume once the pause is visible, as the Fig 7 GUI
				// restart button would.
				sawPause <- waitPhase(prog, "paused")
				r.Resume()
			}()
			sum, err := r.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if sum.Experiments != 10 {
				t.Errorf("experiments = %d, want 10", sum.Experiments)
			}
			if !<-sawPause {
				t.Error("pause phase never reported")
			}

			// Stop: a fresh campaign on the same board count ends early
			// with a nil error and a partial summary.
			camp2 := fakeCampaign(10000)
			var r2 *Runner
			opts2 := []RunnerOption{WithSink(rowHook(t, camp2, nil, func(k int) {
				if k == 10 {
					r2.Stop()
				}
			}))}
			if boards != 1 {
				opts2 = append(opts2, WithBoards(boards, func() TargetSystem { return newFakeTarget() }))
			}
			r2, err = NewRunner(newFakeTarget(), SCIFI, camp2, fakeTSD(), opts2...)
			if err != nil {
				t.Fatal(err)
			}
			sum2, err := r2.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if sum2.Experiments < 10 || sum2.Experiments >= 10000 {
				t.Errorf("experiments after stop = %d", sum2.Experiments)
			}
		})
	}
}

func TestSchedulerBadBoardCount(t *testing.T) {
	camp := fakeCampaign(5)
	r, err := NewRunner(nil, SCIFI, camp, fakeTSD(),
		WithBoards(0, func() TargetSystem { return newFakeTarget() }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err == nil {
		t.Error("zero boards accepted")
	}
	// More than one board requires a target factory.
	r2, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(), WithBoards(4, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Run(context.Background()); err == nil {
		t.Error("multi-board run without a factory accepted")
	}
}

func TestSchedulerTargetError(t *testing.T) {
	camp := fakeCampaign(20)
	// A Framework with nothing implemented fails on the first method.
	r, err := NewRunner(nil, SCIFI, camp, fakeTSD(),
		WithBoards(2, func() TargetSystem { return &Framework{TargetName: "broken"} }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err == nil {
		t.Error("broken target did not surface an error")
	}
}

func TestSchedulerContextCancelParallel(t *testing.T) {
	camp := fakeCampaign(100000)
	ctx, cancel := context.WithCancel(context.Background())
	r, err := NewRunner(nil, SCIFI, camp, fakeTSD(),
		WithBoards(4, func() TargetSystem { return newFakeTarget() }),
		WithSink(rowHook(t, camp, nil, func(k int) {
			if k == 5 {
				cancel()
			}
		})))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctx); err == nil {
		t.Error("cancelled context did not surface")
	}
}

func TestSchedulerLogsReference(t *testing.T) {
	camp := fakeCampaign(5)
	st := storeWithCampaign(t, camp)
	r, err := NewRunner(nil, SCIFI, camp, fakeTSD(), WithSink(st),
		WithBoards(2, func() TargetSystem { return newFakeTarget() }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetExperiment(campaign.ReferenceName("fc")); err != nil {
		t.Errorf("reference run not logged: %v", err)
	}
}

// TestSchedulerBatchingSink runs the same campaign through a synchronous
// Store sink and a BatchingSink and requires identical stored records —
// batching must be invisible to results.
func TestSchedulerBatchingSink(t *testing.T) {
	camp := fakeCampaign(25)
	_, direct := runCampaignOnBoards(t, camp, 1)

	st := storeWithCampaign(t, camp)
	sink := campaign.NewBatchingSink(st, 8)
	r, err := NewRunner(nil, SCIFI, camp, fakeTSD(), WithSink(sink),
		WithBoards(4, func() TargetSystem { return newFakeTarget() }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	batched, err := st.Experiments(camp.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != len(direct) {
		t.Fatalf("record counts: direct %d, batched %d", len(direct), len(batched))
	}
	for i := range direct {
		if !bytes.Equal(recordBytes(t, direct[i]), recordBytes(t, batched[i])) {
			t.Errorf("record %s differs between direct and batched sink", direct[i].Name)
		}
	}
}

// TestSchedulerRerunAfterParallelRun verifies determinism end to end: an
// experiment executed by a 4-board pool reruns to its original outcome.
func TestSchedulerRerunAfterParallelRun(t *testing.T) {
	camp := fakeCampaign(12)
	st := storeWithCampaign(t, camp)
	r, err := NewRunner(nil, SCIFI, camp, fakeTSD(), WithSink(st),
		WithBoards(4, func() TargetSystem { return newFakeTarget() }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, seq := range []int{0, 5, 11} {
		origName := campaign.ExperimentName(camp.Name, seq)
		orig, err := st.GetExperiment(origName)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := r.Rerun(origName, false)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := st.GetExperiment(ex.Name)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Data.Outcome != orig.Data.Outcome {
			t.Errorf("rerun of %s: outcome %+v != original %+v", origName, rec.Data.Outcome, orig.Data.Outcome)
		}
	}
}
