package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/sqldb"
	"goofi/internal/telemetry"
)

// openCampaignStore opens (or reopens) a file-backed store with the
// campaign fixtures in place.
func openCampaignStore(t *testing.T, path string, camp *campaign.Campaign) (*sqldb.DB, *campaign.Store) {
	t.Helper()
	db, err := sqldb.OpenAt(path, sqldb.SyncNever) // durability via barriers; no fsync in tests
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, storeOn(t, db, camp)
}

// recovered is the completed set RecoverCursor reads from a campaign's
// durable rows.
func recovered(t *testing.T, st *campaign.Store, name string) campaign.SeqRanges {
	t.Helper()
	cp, err := st.RecoverCursor(name)
	if err != nil {
		t.Fatal(err)
	}
	return cp.Ranges
}

// prefix is the completed set of experiments 0..k-1.
func prefix(k int) campaign.SeqRanges {
	if k == 0 {
		return nil
	}
	return campaign.SeqRanges{{0, k - 1}}
}

// dumpLoggedState renders every LoggedSystemState row of a campaign in a
// canonical order, so two stores can be compared byte for byte.
func dumpLoggedState(t *testing.T, st *campaign.Store, name string) string {
	t.Helper()
	r, err := st.DB().Query(`SELECT experimentName, parentExperiment, campaignName, step,
		experimentData, stateVector FROM LoggedSystemState WHERE campaignName = ?`,
		sqldb.Text(name))
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		lines = append(lines, strings.Join(cells, "|"))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func boardOpts(boards int) []RunnerOption {
	if boards <= 1 {
		return nil
	}
	return []RunnerOption{WithBoards(boards, func() TargetSystem { return newFakeTarget() })}
}

// batchingSink is the sink the CLI, the daemon and the shard worker run
// campaigns through, with batches short enough that a dozen experiments
// fill some and leave one partial, so cursor saves close both kinds.
func batchingSink(t *testing.T, st *campaign.Store) *campaign.BatchingSink {
	t.Helper()
	sink := campaign.NewBatchingSink(st, 3)
	t.Cleanup(func() { sink.Close() })
	return sink
}

// TestResumeReproducesFullRun is the paper's crash-recovery acceptance
// check: a campaign stopped after k experiments and resumed from its
// recovered cursor must leave the database — and the analysis report
// derived from it — byte-identical to an uninterrupted run, for several
// stop points and board counts. The uninterrupted run writes straight to
// the store; the interrupted and the resumed one go through batching
// sinks, whose cursor saves are queued commits, not barriers.
func TestResumeReproducesFullRun(t *testing.T) {
	const n = 12
	// The uninterrupted run everything is measured against.
	refCamp := fakeCampaign(n)
	_, refStore := openCampaignStore(t, filepath.Join(t.TempDir(), "full.db"), refCamp)
	r, err := NewRunner(newFakeTarget(), SCIFI, refCamp, fakeTSD(),
		WithSink(refStore), WithCheckpoints(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantState := dumpLoggedState(t, refStore, "fc")
	wantReport, err := analysis.AnalyzeAndStore(refStore, "fc")
	if err != nil {
		t.Fatal(err)
	}

	for _, boards := range []int{1, 3} {
		for _, k := range []int{1, 5, 11} {
			t.Run(fmt.Sprintf("boards=%d/k=%d", boards, k), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "goofi.db")
				camp := fakeCampaign(n)
				db, st := openCampaignStore(t, path, camp)

				// Phase 1: run until k experiments completed, then stop —
				// the checkpoint interval of 2 means the stored cursor may
				// lag the durable rows, exactly like a crash between a
				// flush and a cursor write.
				var r1 *Runner
				sink := rowHook(t, camp, batchingSink(t, st), func(seen int) {
					if seen == k {
						r1.Stop()
					}
				})
				r1, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(),
					append(boardOpts(boards), WithSink(sink), WithCheckpoints(2))...)
				if err != nil {
					t.Fatal(err)
				}
				sum1, err := r1.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if sum1.Experiments >= n {
					// With several boards a stop this close to the end can
					// lose the race with the last in-flight experiments.
					// The resume below must then be a no-op that changes
					// nothing — still worth asserting.
					t.Logf("stop at %d lost the race (%d ran); resume becomes a no-op check",
						k, sum1.Experiments)
				}
				// Simulate the kill: no db.Checkpoint, no graceful close, the
				// sink left as Run's termination flush left it — reopen from
				// the snapshot + write-ahead log alone.
				db.Close()
				db2, st2 := openCampaignStore(t, path, camp)
				_ = db2

				// Phase 2: recover the cursor and run the remainder.
				cp, err := st2.RecoverCursor("fc")
				if err != nil {
					t.Fatal(err)
				}
				if !cp.Reference {
					t.Fatal("recovered cursor lost the reference run")
				}
				if cp.Ranges.Len() < sum1.Experiments {
					t.Fatalf("recovered %d completed experiments, first run logged %d",
						cp.Ranges.Len(), sum1.Experiments)
				}
				sink2 := batchingSink(t, st2)
				r2, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(),
					append(boardOpts(boards),
						WithSink(sink2), WithCheckpoints(2), WithResume(cp))...)
				if err != nil {
					t.Fatal(err)
				}
				sum2, err := r2.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if err := sink2.Close(); err != nil {
					t.Fatal(err)
				}
				if got := cp.Ranges.Len() + sum2.Experiments; got != n {
					t.Fatalf("resumed run completed %d total experiments, want %d", got, n)
				}

				// The resumed database must match the uninterrupted one.
				if got := dumpLoggedState(t, st2, "fc"); got != wantState {
					t.Errorf("logged state after resume differs from full run:\n got: %.200s...\nwant: %.200s...",
						got, wantState)
				}
				rep, err := analysis.AnalyzeAndStore(st2, "fc")
				if err != nil {
					t.Fatal(err)
				}
				if rep.Render() != wantReport.Render() {
					t.Error("analysis report after resume differs from full run")
				}
			})
		}
	}
}

// TestResumeFromFlatListCursor: a campaign interrupted by a build that
// stored the completed set in its cursor, as the flat "completed" list,
// resumes under this one, which reads the set from the rows and stores
// only the identity, to the same database as an uninterrupted run.
func TestResumeFromFlatListCursor(t *testing.T) {
	const n = 10
	full := storeWithCampaign(t, fakeCampaign(n))
	r, err := NewRunner(newFakeTarget(), SCIFI, fakeCampaign(n), fakeTSD(), WithSink(full), WithCheckpoints(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	camp := fakeCampaign(n)
	st := storeWithCampaign(t, camp)
	var r1 *Runner
	sink := rowHook(t, camp, st, func(k int) {
		if k == 4 {
			r1.Stop()
		}
	})
	r1, err = NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(), WithSink(sink), WithCheckpoints(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stored, err := st.GetCheckpoint("fc")
	if err != nil || stored == nil {
		t.Fatalf("stored cursor %+v, %v", stored, err)
	}
	old := fmt.Sprintf(`{"campaign":"fc","planHash":%q,"seed":%d,"experiments":%d,"reference":true,"completed":[0,1,2,3]}`,
		stored.PlanHash, stored.Seed, stored.Experiments)
	if _, err := st.DB().Exec(`UPDATE CampaignCheckpoint SET cursor = ? WHERE campaignName = ?`,
		sqldb.Blob([]byte(old)), sqldb.Text("fc")); err != nil {
		t.Fatal(err)
	}
	cp, err := st.RecoverCursor("fc")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(cp.Ranges) != fmt.Sprint(prefix(4)) || cp.PlanHash != stored.PlanHash {
		t.Fatalf("recovered %+v from the flat-list cursor, stored was %+v", cp, stored)
	}
	r2, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(), WithSink(st), WithCheckpoints(1), WithResume(cp))
	if err != nil {
		t.Fatal(err)
	}
	if sum, err := r2.Run(context.Background()); err != nil || sum.Experiments != n-4 {
		t.Fatalf("resume ran %d experiments (err %v), want %d", sum.Experiments, err, n-4)
	}
	if got, want := dumpLoggedState(t, st, "fc"), dumpLoggedState(t, full, "fc"); got != want {
		t.Error("database after resuming from a flat-list cursor differs from a full run")
	}
	// The cursor the resumed run left behind is the identity alone.
	r3, err := st.DB().Query(`SELECT cursor FROM CampaignCheckpoint WHERE campaignName = ?`, sqldb.Text("fc"))
	if err != nil || len(r3.Rows) != 1 {
		t.Fatalf("cursor row: %v, %v", r3, err)
	}
	want := fmt.Sprintf(`{"campaign":"fc","planHash":%q,"seed":%d,"experiments":%d,"reference":true}`,
		stored.PlanHash, stored.Seed, stored.Experiments)
	if blob := string(r3.Rows[0][0].B); blob != want {
		t.Errorf("final cursor %s, want %s", blob, want)
	}
}

// TestResumeRejectsChangedPlan: a checkpoint from one campaign
// definition must not resume onto another.
func TestResumeRejectsChangedPlan(t *testing.T) {
	camp := fakeCampaign(6)
	st := storeWithCampaign(t, camp)
	var r1 *Runner
	sink := rowHook(t, camp, st, func(k int) {
		if k == 1 {
			r1.Stop()
		}
	})
	r1, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(), WithSink(sink), WithCheckpoints(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cp, err := st.RecoverCursor("fc")
	if err != nil {
		t.Fatal(err)
	}
	if cp.PlanHash == "" {
		t.Fatal("no plan hash in recovered cursor")
	}
	changed := fakeCampaign(6)
	changed.Seed = 999 // different seed → different plan
	if err := st.PutCampaign(changed); err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(newFakeTarget(), SCIFI, changed, fakeTSD(),
		WithSink(st), WithCheckpoints(1), WithResume(cp))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r2.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "plan hash mismatch") {
		t.Errorf("changed plan resumed: err = %v", err)
	}
}

// rebuiltTarget is fakeTarget as a changed target or build would leave it,
// changed: every run, the reference's included, reads other bytes back from
// memory. nondet makes it declare itself nondeterministic, as the proc
// target does.
type rebuiltTarget struct {
	*fakeTarget
	changed, nondet bool
}

func (t *rebuiltTarget) ReadMemory(ex *Experiment) error {
	if err := t.fakeTarget.ReadMemory(ex); err != nil || !t.changed {
		return err
	}
	ex.Result.Memory = map[string][]byte{"out": {0xAB}}
	return nil
}

func (t *rebuiltTarget) Deterministic() bool { return !t.nondet }

// storedCursor is a campaign's cursor as the store holds it.
func storedCursor(t *testing.T, st *campaign.Store, name string) string {
	t.Helper()
	r, err := st.DB().Query(`SELECT cursor FROM CampaignCheckpoint WHERE campaignName = ?`, sqldb.Text(name))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("%d cursors stored for %s", len(r.Rows), name)
	}
	return r.Rows[0][0].String()
}

// TestResumeRefusesChangedReference: a resumed run re-runs the reference,
// and the rows already stored are relative to the logged one. On a
// deterministic target that no longer reproduces it, the run fails with
// ErrReferenceChanged before it hands the sink a row, and the store's rows
// and cursor stay as they were. A nondeterministic target's reference is
// not compared: its rows are stored whole, and the run resumes.
func TestResumeRefusesChangedReference(t *testing.T) {
	const n, k = 12, 5
	for _, nondet := range []bool{false, true} {
		t.Run(fmt.Sprintf("nondeterministic=%v", nondet), func(t *testing.T) {
			camp := fakeCampaign(n)
			st := storeWithCampaign(t, camp)
			var r1 *Runner
			hook := rowHook(t, camp, st, func(seen int) {
				if seen == k {
					r1.Stop()
				}
			})
			r1, err := NewRunner(&rebuiltTarget{fakeTarget: newFakeTarget(), nondet: nondet}, SCIFI, camp, fakeTSD(),
				WithSink(hook), WithCheckpoints(2))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r1.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			cp, err := st.RecoverCursor("fc")
			if err != nil {
				t.Fatal(err)
			}
			rows, cursor := dumpLoggedState(t, st, "fc"), storedCursor(t, st, "fc")
			refName := campaign.ReferenceName("fc")
			ref, err := st.GetExperiment(refName)
			if err != nil {
				t.Fatal(err)
			}

			sink := &countingSink{CheckpointSink: st}
			r2, err := NewRunner(&rebuiltTarget{fakeTarget: newFakeTarget(), changed: true, nondet: nondet},
				SCIFI, camp, fakeTSD(), WithSink(sink), WithCheckpoints(2), WithResume(cp))
			if err != nil {
				t.Fatal(err)
			}
			sum, err := r2.Run(context.Background())
			if nondet {
				if err != nil || cp.Ranges.Len()+sum.Experiments != n {
					t.Fatalf("nondeterministic resume: %v, %d + %d experiments", err, cp.Ranges.Len(), sum.Experiments)
				}
				if again, err := st.GetExperiment(refName); err != nil || !reflect.DeepEqual(again, ref) {
					t.Errorf("the logged reference changed under the resumed run: %v", err)
				}
				return
			}
			if !errors.Is(err, ErrReferenceChanged) {
				t.Fatalf("resume onto a changed reference: err = %v, want ErrReferenceChanged", err)
			}
			if got := sink.handed.Load(); got != 0 {
				t.Errorf("the refused run handed the sink %d rows", got)
			}
			if dumpLoggedState(t, st, "fc") != rows {
				t.Error("the refused run changed the stored rows")
			}
			if got := storedCursor(t, st, "fc"); got != cursor {
				t.Errorf("the refused run changed the cursor\n got: %s\nwant: %s", got, cursor)
			}
		})
	}
}

// TestCheckpointsNeedCheckpointSink: WithCheckpoints over a sink that
// cannot store a cursor is a configuration error, not a silent no-op.
func TestCheckpointsNeedCheckpointSink(t *testing.T) {
	camp := fakeCampaign(2)
	r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(),
		WithSink(plainSink{}), WithCheckpoints(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "SaveCheckpoint") {
		t.Errorf("err = %v, want checkpoint-sink error", err)
	}
}

// plainSink is a ResultSink without SaveCheckpoint.
type plainSink struct{}

func (plainSink) LogExperiment(*campaign.ExperimentRecord) error { return nil }
func (plainSink) GetExperiment(string) (*campaign.ExperimentRecord, error) {
	return nil, fmt.Errorf("not found")
}
func (plainSink) Flush() error { return nil }

// TestPauseWritesCursor: pausing is a durable checkpoint — the cursor
// row exists while the campaign is paused, and the rows of the experiments
// completed before the pause are durable.
func TestPauseWritesCursor(t *testing.T) {
	camp := fakeCampaign(8)
	st := storeWithCampaign(t, camp)
	prog := telemetry.NewProgress(1)
	var r *Runner
	sink := rowHook(t, camp, st, func(k int) {
		if k == 3 {
			r.Pause()
		}
	})
	r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(),
		WithSink(sink), WithCheckpoints(100), // periodic checkpoints never fire
		WithTelemetry(nil, prog))
	if err != nil {
		t.Fatal(err)
	}
	sawCursor := make(chan bool, 1)
	go func() {
		// Resume once the pause is visible, as the Fig 7 restart button
		// would.
		paused := waitPhase(prog, "paused")
		cp, err := st.GetCheckpoint("fc")
		rec, rerr := st.RecoverCursor("fc")
		sawCursor <- paused && err == nil && cp != nil && rerr == nil && rec.Ranges.Len() >= 3
		r.Resume()
	}()
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !<-sawCursor {
		t.Error("paused campaign had no durable cursor covering completed experiments")
	}
}

// TestPausedPhase: a pause at row k reads "paused" in the progress view
// only once the cursor and rows 0..k-1 are durable — the
// store under a batching sink holds them — and holds until Resume; the
// next row is handed over in phase "experiment", and the run finishes
// "done".
func TestPausedPhase(t *testing.T) {
	const n, k = 40, 7
	for _, boards := range []int{1, 3} {
		t.Run(fmt.Sprintf("boards=%d", boards), func(t *testing.T) {
			camp := fakeCampaign(n)
			st := storeWithCampaign(t, camp)
			prog := telemetry.NewProgress(boards)
			batches := campaign.NewBatchingSink(st, 0)
			defer batches.Close()
			var r *Runner
			var resumedPhase string
			sink := rowHook(t, camp, batches, func(seen int) {
				switch seen {
				case k:
					r.Pause()
				case k + 1:
					resumedPhase = prog.Snapshot().Phase
				}
			})
			r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(),
				append(boardOpts(boards), WithSink(sink), WithCheckpoints(100), WithTelemetry(nil, prog))...)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := r.Run(context.Background())
				done <- err
			}()
			if !waitPhase(prog, "paused") {
				r.Stop()
				t.Fatalf("a pause at row %d never read paused (phase %q)", k, prog.Snapshot().Phase)
			}
			if cp, err := st.GetCheckpoint(camp.Name); err != nil || cp == nil {
				t.Errorf("paused with no cursor (%v)", err)
			}
			if got := recovered(t, st, camp.Name); fmt.Sprint(got) != fmt.Sprint(prefix(k)) {
				t.Errorf("paused with %v complete, want rows 0..%d", got, k-1)
			}
			if got, err := st.CountExperiments(camp.Name); err != nil || got != k+1 {
				t.Errorf("paused with %d rows stored (%v), want %d and the reference", got, err, k)
			}
			time.Sleep(20 * time.Millisecond)
			if s := prog.Snapshot(); s.Phase != "paused" || s.Done != k {
				t.Errorf("a paused run moved on: phase %q, %d done", s.Phase, s.Done)
			}
			r.Resume()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if resumedPhase != "experiment" {
				t.Errorf("the row after the resume was handed over in phase %q", resumedPhase)
			}
			if s := prog.Snapshot(); s.Phase != telemetry.PhaseDone || s.Done != n {
				t.Errorf("after the resume: phase %q, %d/%d done", s.Phase, s.Done, n)
			}
		})
	}
}

// cutLog is the device under a write-ahead log that remembers where every
// write to it ended: the points at which a kill leaves a log made of whole
// records, or of whole records and a torn one.
type cutLog struct {
	mu   sync.Mutex
	img  []byte
	cuts []int
}

func (l *cutLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.img = append(l.img, p...)
	l.cuts = append(l.cuts, len(l.img))
	return len(p), nil
}

// TestResumeFromEveryLogCut kills a two-board campaign, run through a
// batching sink so that cursor saves are commits in the writer's queue, at
// every point its log could have ended. Whatever the cut, the recovered
// store must hold the rows of every experiment its cursor names, and
// resuming from it must reproduce the uninterrupted run's rows and report.
func TestResumeFromEveryLogCut(t *testing.T) {
	const n = 12
	full := storeWithCampaign(t, fakeCampaign(n))
	r, err := NewRunner(newFakeTarget(), SCIFI, fakeCampaign(n), fakeTSD(), WithSink(full))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantState := dumpLoggedState(t, full, "fc")
	wantReport, err := analysis.AnalyzeAndStore(full, "fc")
	if err != nil {
		t.Fatal(err)
	}

	// The run whose log is cut. The log is attached before the store is
	// set up, so schema and fixtures are in it too.
	log := &cutLog{}
	db := sqldb.Open()
	db.AttachWAL(sqldb.NewWAL(log, sqldb.SyncAlways))
	st := storeOn(t, db, fakeCampaign(n))
	sink := campaign.NewBatchingSink(st, 3)
	r, err = NewRunner(newFakeTarget(), SCIFI, fakeCampaign(n), fakeTSD(),
		append(boardOpts(2), WithSink(sink), WithCheckpoints(2))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	cursors := 0
	for _, cut := range log.cuts {
		db := sqldb.Open()
		if _, err := db.ReplayWAL(bytes.NewReader(log.img[:cut])); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		st := storeOn(t, db, fakeCampaign(n))
		stored, err := st.GetCheckpoint("fc")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if stored != nil {
			cursors++
			if _, err := st.GetExperiment(campaign.ReferenceName("fc")); stored.Reference && err != nil {
				t.Errorf("cut %d: cursor names the reference run: %v", cut, err)
			}
		}
		cp, err := st.RecoverCursor("fc")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// Rows are handed over in plan order, so what any cut holds is a
		// prefix of the plan.
		if got := cp.Ranges; fmt.Sprint(got) != fmt.Sprint(prefix(got.Len())) {
			t.Errorf("cut %d: the durable rows %v are not a prefix of the plan", cut, got)
		}
		sink := campaign.NewBatchingSink(st, 3)
		r, err := NewRunner(newFakeTarget(), SCIFI, fakeCampaign(n), fakeTSD(),
			append(boardOpts(2), WithSink(sink), WithCheckpoints(2), WithResume(cp))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatalf("cut %d: resume: %v", cut, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := dumpLoggedState(t, st, "fc"); got != wantState {
			t.Errorf("cut %d: logged state after resume differs from the full run", cut)
		}
		rep, err := analysis.AnalyzeAndStore(st, "fc")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if rep.Render() != wantReport.Render() {
			t.Errorf("cut %d: analysis report after resume differs from the full run", cut)
		}
	}
	if cursors < n/2 {
		t.Errorf("only %d of %d cuts had a stored cursor; the harness is not cutting between commits", cursors, len(log.cuts))
	}
}

// stallLog is a log device that keeps what reaches it and, once stall is
// called, lets nothing more through until release.
type stallLog struct {
	mu      sync.Mutex
	img     []byte
	stalled chan struct{}
}

func (l *stallLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	stalled := l.stalled
	l.mu.Unlock()
	if stalled != nil {
		<-stalled
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.img = append(l.img, p...)
	return len(p), nil
}

// stall shuts the device; the returned function opens it again, once.
func (l *stallLog) stall() (release func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	stalled := make(chan struct{})
	l.stalled = stalled
	return sync.OnceFunc(func() {
		l.mu.Lock()
		l.stalled = nil
		l.mu.Unlock()
		close(stalled)
	})
}

func (l *stallLog) image() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return bytes.Clone(l.img)
}

// countingSink counts the records handed to the sink behind it. When atRow
// is set, it is called after every experiment end row the sink behind has
// taken (the reference's not counted) with how many it has taken: the
// hand-over stage logs each row in plan order just before it resolves it,
// so a Stop, cancel or Pause from atRow(k) lands where one from the k-th
// row's resolve would.
type countingSink struct {
	CheckpointSink
	handed atomic.Int64
	rows   int
	atRow  func(k int)
}

func (s *countingSink) LogExperiment(rec *campaign.ExperimentRecord) error {
	s.handed.Add(1)
	if err := s.CheckpointSink.LogExperiment(rec); err != nil {
		return err
	}
	if s.atRow != nil && rec.Step < 0 && !rec.IsReference() {
		s.rows++
		s.atRow(s.rows)
	}
	return nil
}

// rowHook wraps sink (a store for the row counts alone when nil) in a
// countingSink that calls fn after each experiment end row.
func rowHook(t *testing.T, camp *campaign.Campaign, sink CheckpointSink, fn func(k int)) *countingSink {
	t.Helper()
	if sink == nil {
		sink = storeWithCampaign(t, camp)
	}
	return &countingSink{CheckpointSink: sink, atRow: fn}
}

// waitPhase polls prog until its phase reads want and reports whether it
// did within ten seconds. A paused phase holds until Resume, so the poll
// cannot miss it.
func waitPhase(prog *telemetry.Progress, want string) bool {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if prog.Snapshot().Phase == want {
			return true
		}
	}
	return false
}

// TestSinkKillAtBoundResumes kills a campaign — pruned and emulated rows
// through a batching sink at the default cursor cadence — at the moment it
// has the most to lose: the store's device stalled, the sink's queue filled
// to its bound behind it, the board waiting for room. What the device holds
// then must be a store whose cursor names only rows that are there, short
// of the run by no more than the bound promises, and resuming from it must
// reproduce the uninterrupted run's rows.
func TestSinkKillAtBoundResumes(t *testing.T) {
	const n = 4 * campaign.QueueRows
	factory := func() TargetSystem { return &forwardingFake{fakeTarget: newFakeTarget(), table: fakeTargetUses()} }
	full := storeWithCampaign(t, fakeCampaign(n))
	r, err := NewRunner(factory(), SCIFI, fakeCampaign(n), fakeTSD(), WithSink(full), WithBoards(1, factory))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Pruned.Total() == 0 || sum.Pruned.Total() == n {
		t.Fatalf("%d of %d experiments pruned: want both kinds of row in the queue", sum.Pruned.Total(), n)
	}
	want := dumpLoggedState(t, full, "fc")

	log := &stallLog{}
	db := sqldb.Open()
	db.AttachWAL(sqldb.NewWAL(log, sqldb.SyncAlways))
	st := storeOn(t, db, fakeCampaign(n))
	sink := &countingSink{CheckpointSink: campaign.NewBatchingSink(st, 0)}
	// The hand-over stage waits in the sink, two cursor saves into the
	// campaign, until the device is shut.
	underWay, shut := make(chan struct{}), make(chan struct{})
	sink.atRow = func(k int) {
		if k == 2*DefaultCheckpointInterval {
			close(underWay)
			<-shut
		}
	}
	r, err = NewRunner(factory(), SCIFI, fakeCampaign(n), fakeTSD(), WithSink(sink), WithBoards(1, factory),
		WithCheckpoints(DefaultCheckpointInterval))
	if err != nil {
		t.Fatal(err)
	}
	finished := make(chan error, 1)
	go func() {
		_, err := r.Run(context.Background())
		finished <- err
	}()
	<-underWay
	deadline := time.Now().Add(10 * time.Second)
	for !bytes.Contains(log.image(), []byte("INSERT INTO CampaignCheckpoint")) {
		if time.Now().After(deadline) {
			close(shut)
			t.Fatal("the writer never stored the first cursor")
		}
		time.Sleep(time.Millisecond)
	}
	release := log.stall()
	close(shut)
	// On every way out: the run stands in the sink until the device moves
	// again.
	defer func() {
		release()
		<-finished
	}()

	// The board is at the bound when it stops handing records over, with
	// at least the bound's rows handed over since the device stalled.
	for prev := int64(-1); ; {
		handed := sink.handed.Load()
		if handed == prev && handed >= campaign.QueueRows {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the campaign never came to rest behind the stalled store (%d records handed over)", handed)
		}
		prev = handed
		time.Sleep(20 * time.Millisecond)
	}
	select {
	case err := <-finished:
		finished <- err
		t.Fatalf("the campaign ran to its end (%v) with the store stalled: the queue is not bounded", err)
	default:
	}
	handed := int(sink.handed.Load())

	killed := sqldb.Open()
	if _, err := killed.ReplayWAL(bytes.NewReader(log.image())); err != nil {
		t.Fatal(err)
	}
	kst := storeOn(t, killed, fakeCampaign(n))
	stored, err := kst.GetCheckpoint("fc")
	if err != nil || stored == nil {
		t.Fatalf("no cursor in the killed store: %v", err)
	}
	durable, err := kst.CountExperiments("fc")
	if err != nil {
		t.Fatal(err)
	}
	// What waits, as much in the writer's hands, and the batch being
	// filled — at any cursor cadence.
	if lost, bound := handed-durable, 2*campaign.QueueRows+campaign.DefaultBatchSize; lost <= 0 || lost > bound {
		t.Errorf("%d records handed over, %d durable: %d lost, the bound is %d", handed, durable, lost, bound)
	}

	cp, err := kst.RecoverCursor("fc")
	if err != nil {
		t.Fatal(err)
	}
	if want := prefix(durable - 1); fmt.Sprint(cp.Ranges) != fmt.Sprint(want) {
		t.Errorf("the killed store's rows complete %v, want the prefix %v and the reference", cp.Ranges, want)
	}
	resumed := campaign.NewBatchingSink(kst, 0)
	rr, err := NewRunner(factory(), SCIFI, fakeCampaign(n), fakeTSD(), WithSink(resumed), WithBoards(1, factory),
		WithCheckpoints(DefaultCheckpointInterval), WithResume(cp))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Run(context.Background()); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dumpLoggedState(t, kst, "fc"); got != want {
		t.Error("logged state after the kill and the resume differs from the full run")
	}

	// The run that was not killed after all finishes as if nothing had been.
	release()
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
	finished <- nil
	if err := sink.CheckpointSink.(*campaign.BatchingSink).Close(); err != nil {
		t.Fatal(err)
	}
	if got := dumpLoggedState(t, st, "fc"); got != want {
		t.Error("logged state after the stall differs from the full run")
	}
}

// cursorCounter counts the cursor saves that hand the sink a cursor and
// those that ask for the barrier alone.
type cursorCounter struct {
	CheckpointSink
	written, barriers int
}

func (c *cursorCounter) SaveCheckpoint(cp *campaign.Checkpoint) error {
	if cp == nil {
		c.barriers++
	} else {
		c.written++
	}
	return c.CheckpointSink.SaveCheckpoint(cp)
}

// TestCursorWrittenOncePerRun: a run writes its cursor row once, at its
// first save — after the reference run — and every later save, periodic or
// at termination, raises the barrier alone, at the same cadence. The
// written state is the run's: a second run of the campaign, after the
// slate is cleared as `goofi run` clears it, writes the cursor again.
func TestCursorWrittenOncePerRun(t *testing.T) {
	const n, every = 20, 4
	camp := fakeCampaign(n)
	st := storeWithCampaign(t, camp)
	sink := &cursorCounter{CheckpointSink: st}
	r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(), WithSink(sink), WithCheckpoints(every))
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 2; run++ {
		if err := st.DeleteRun(camp.Name); err != nil {
			t.Fatal(err)
		}
		sink.written, sink.barriers = 0, 0
		sum, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sink.written != 1 || sink.barriers != n/every+1 {
			t.Errorf("run %d: %d cursors written and %d barriers alone, want 1 and %d",
				run, sink.written, sink.barriers, n/every+1)
		}
		cp, err := st.GetCheckpoint(camp.Name)
		if err != nil || cp == nil || cp.PlanHash != sum.PlanHash || !cp.Reference {
			t.Fatalf("run %d: stored cursor %+v (%v)", run, cp, err)
		}
	}
}
