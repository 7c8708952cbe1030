package analysis

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/scifi"
	"goofi/internal/shard"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// Rows stored relative to the reference run, end to end: whichever way a
// deterministic campaign is driven it stores the same bytes, they read
// back as the records the runner logged, and they classify as the whole
// states would have.

// relativeCampaigns are the three shapes the row format is judged on: the
// quickstart campaign (golden_test.go's, and the benchmark's sort
// workloads' shape), sort16 with the cache chains in the fault space, and
// the PID controller in its closed loop with a thousand outputs per run.
func relativeCampaigns() []*campaign.Campaign {
	sortCamp := func(name string, n int, seed int64, locations ...string) *campaign.Campaign {
		return &campaign.Campaign{
			Name: name, TargetName: "thor-board", ChainName: "internal",
			Locations:      locations,
			FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient},
			Trigger:        trigger.Spec{Kind: "cycle"},
			RandomWindow:   [2]uint64{10, 1600},
			NumExperiments: n, Seed: seed,
			Termination: campaign.Termination{TimeoutCycles: 100_000},
			Workload:    workload.Sort(),
			LogMode:     campaign.LogNormal,
		}
	}
	pid := pidCampaign("pid-control", 60)
	pid.Termination = campaign.Termination{TimeoutCycles: 4_000_000, MaxIterations: 1000}
	return []*campaign.Campaign{
		sortCamp("quickstart", 100, 2026, "cpu"),
		sortCamp("sort16", 80, 9, "cpu", "icache", "dcache"),
		pid,
	}
}

// teeSink keeps every record the runner hands to the sink behind it. When
// atRow is set, it is called after every experiment end row the sink
// behind has taken (the reference's not counted) with how many it has
// taken: the hand-over stage logs each row in plan order just before it
// resolves it.
type teeSink struct {
	core.CheckpointSink
	mu     sync.Mutex
	logged map[string]*campaign.ExperimentRecord
	rows   int
	atRow  func(k int)
}

func (s *teeSink) LogExperiment(rec *campaign.ExperimentRecord) error {
	s.mu.Lock()
	s.logged[rec.Name] = rec
	s.mu.Unlock()
	if err := s.CheckpointSink.LogExperiment(rec); err != nil {
		return err
	}
	if s.atRow != nil && rec.Step < 0 && !rec.IsReference() {
		s.rows++
		s.atRow(s.rows)
	}
	return nil
}

// nondeterministic is a scifi target that declares what a live process is:
// a run no other process need reproduce byte for byte. Forwarding goes with
// the declaration's wrapper, which is all the same to the rows.
type nondeterministic struct{ core.TargetSystem }

func (nondeterministic) Deterministic() bool { return false }

// relativeStore is a fresh on-disk store holding camp's definition.
func relativeStore(t *testing.T, camp *campaign.Campaign) *campaign.Store {
	t.Helper()
	db, err := sqldb.OpenAt(filepath.Join(t.TempDir(), "rows.db"), sqldb.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	st, err := campaign.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutTargetSystem(scifi.TargetSystemData(camp.TargetName)); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign(camp); err != nil {
		t.Fatal(err)
	}
	return st
}

// runInto runs camp into st the way `goofi run` does — batching sink,
// durable cursors — and returns the records the runner logged.
func runInto(t *testing.T, st *campaign.Store, camp *campaign.Campaign, factory func() core.TargetSystem,
	opts ...core.RunnerOption) (map[string]*campaign.ExperimentRecord, *core.Summary) {
	t.Helper()
	sink := campaign.NewBatchingSink(st, 0)
	tee := &teeSink{CheckpointSink: sink, logged: map[string]*campaign.ExperimentRecord{}}
	r, err := core.NewRunner(factory(), core.SCIFI, camp, scifi.TargetSystemData(camp.TargetName),
		append([]core.RunnerOption{core.WithSink(tee), core.WithBoards(1, factory),
			core.WithCheckpoints(core.DefaultCheckpointInterval)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return tee.logged, sum
}

func thorTarget() core.TargetSystem { return scifi.New(thor.DefaultConfig()) }

// storedRows renders a campaign's end rows — name, experimentData,
// stateVector as stored — in name order.
func storedRows(t *testing.T, st *campaign.Store, name string) map[string][2][]byte {
	t.Helper()
	r, err := st.DB().Query(`SELECT experimentName, experimentData, stateVector FROM LoggedSystemState
		WHERE campaignName = ? AND step = -1`, sqldb.Text(name))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][2][]byte, len(r.Rows))
	for _, row := range r.Rows {
		out[row[0].S] = [2][]byte{row[1].B, row[2].B}
	}
	return out
}

func sameRows(t *testing.T, mode string, got, want map[string][2][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d rows, solo has %d", mode, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok || !bytes.Equal(g[0], w[0]) || !bytes.Equal(g[1], w[1]) {
			t.Fatalf("%s: row %s\n%s\n%x\nsolo stored\n%s\n%x", mode, name, g[0], g[1], w[0], w[1])
		}
	}
}

// stateBytes is the mean stateVector size of the experiments' end rows and
// how many of them are relative.
func stateBytes(rows map[string][2][]byte, refName string) (mean float64, relative int) {
	total := 0
	for name, row := range rows {
		if name == refName {
			continue
		}
		total += len(row[1])
		if row[1][0] != '{' {
			relative++
		}
	}
	return float64(total) / float64(len(rows)-1), relative
}

// stateBudget is the checked-in ceiling on the mean stateVector bytes of
// an experiment's end row, per campaign of relativeCampaigns — measured
// 45.8, 62.0 and 74.2 when the relative form went in, where the whole state
// takes 1,165, 1,165 and 6,997. The benchmark's disk_bytes_per_exp moves
// with these; the budget trips in tier-1, not only there.
var stateBudget = map[string]float64{"quickstart": 60, "sort16": 80, "pid-control": 95}

func TestRelativeRowsDifferential(t *testing.T) {
	for _, camp := range relativeCampaigns() {
		t.Run(camp.Name, func(t *testing.T) {
			refName := campaign.ReferenceName(camp.Name)

			// Solo, start to end.
			solo := relativeStore(t, camp)
			logged, sum := runInto(t, solo, camp, thorTarget)
			want := storedRows(t, solo, camp.Name)
			mean, relative := stateBytes(want, refName)
			if want[refName][1][0] != '{' {
				t.Error("the reference row is not stored whole")
			}
			if relative != camp.NumExperiments {
				t.Errorf("%d of %d experiment rows are relative", relative, camp.NumExperiments)
			}
			if sum.Pruned.Total() == 0 {
				t.Error("nothing was pruned: the solo run does not cover synthesized rows")
			}
			t.Logf("mean stateVector %.1f B over %d rows, reference %d B", mean, relative, len(want[refName][1]))

			// Read back, they are the records the runner logged — as the
			// absolute form would have returned them, nil and empty included.
			recs, err := solo.Experiments(camp.Name)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != len(logged) {
				t.Fatalf("%d records read back, %d logged", len(recs), len(logged))
			}
			for _, got := range recs {
				// A pruned experiment's record says its state as a
				// difference; spelled out, it is an emulated one's.
				handed := *logged[got.Name]
				state, err := handed.WholeState()
				if err != nil {
					t.Fatal(err)
				}
				handed.State, handed.Ref, handed.ScanDiff, handed.FromRef = *state, nil, nil, false
				whole, err := campaign.EncodeRow(&handed)
				if err != nil {
					t.Fatal(err)
				}
				want, err := campaign.DecodeRow(&whole, nil)
				if err != nil {
					t.Fatal(err)
				}
				if (got.Ref != nil) != (got.Name != refName) {
					t.Errorf("%s: read back with reference attached: %v", got.Name, got.Ref != nil)
				}
				got.Ref, got.ScanDiff = nil, nil
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s read back\n%+v\nlogged\n%+v", got.Name, got, want)
				}
			}

			// Resumed mid-way: the second half goes relative to the
			// reference row the first half left, read back through the sink.
			resumed := relativeStore(t, camp)
			var first *core.Runner
			sinkA := campaign.NewBatchingSink(resumed, 0)
			stopped := &teeSink{CheckpointSink: sinkA, logged: map[string]*campaign.ExperimentRecord{}, atRow: func(k int) {
				if k == camp.NumExperiments/2 {
					first.Stop()
				}
			}}
			first, err = core.NewRunner(thorTarget(), core.SCIFI, camp, scifi.TargetSystemData(camp.TargetName),
				core.WithSink(stopped), core.WithCheckpoints(core.DefaultCheckpointInterval))
			if err != nil {
				t.Fatal(err)
			}
			if half, err := first.Run(context.Background()); err != nil || half.Experiments >= camp.NumExperiments {
				t.Fatalf("the interrupted half ran %d experiments: %v", half.Experiments, err)
			}
			if err := sinkA.Close(); err != nil {
				t.Fatal(err)
			}
			cursor, err := resumed.RecoverCursor(camp.Name)
			if err != nil {
				t.Fatal(err)
			}
			runInto(t, resumed, camp, thorTarget, core.WithResume(cursor))
			sameRows(t, "resumed", storedRows(t, resumed, camp.Name), want)

			// Forwarding off: every row emulated, none synthesized.
			cold := relativeStore(t, camp)
			if _, sum := runInto(t, cold, camp, thorTarget, core.WithForwarding(core.ForwardConfig{Disabled: true})); sum.Pruned.Total() != 0 {
				t.Errorf("forwarding off pruned %d experiments", sum.Pruned.Total())
			}
			sameRows(t, "forwarding off", storedRows(t, cold, camp.Name), want)

			// Sharded in three ranges, all run by one worker: its second and
			// third range go relative to the reference run it keeps.
			merged := relativeStore(t, camp)
			coord, err := shard.NewCoordinator(shard.CoordinatorConfig{Store: merged, Campaign: camp,
				Target: scifi.TargetSystemData(camp.TargetName), Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			w, err := shard.NewWorker(shard.WorkerConfig{Name: "w", Transport: shard.Direct{C: coord}})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			if err := w.Run(ctx); err != nil {
				t.Fatalf("shard worker: %v", err)
			}
			if err := coord.Close(); err != nil {
				t.Fatal(err)
			}
			sameRows(t, "sharded", storedRows(t, merged, camp.Name), want)

			// The control: the same campaign on a target that declares
			// itself nondeterministic stores every state whole, the bytes
			// builds before the relative form stored.
			control := relativeStore(t, camp)
			runInto(t, control, camp, func() core.TargetSystem { return nondeterministic{thorTarget()} })
			for name, row := range storedRows(t, control, camp.Name) {
				state, err := logged[name].WholeState()
				if err != nil {
					t.Fatal(err)
				}
				whole, err := state.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(row[0], want[name][0]) || !bytes.Equal(row[1], whole) {
					t.Fatalf("control row %s\n%s\n%x\nwant the whole state\n%s", name, row[0], row[1], whole)
				}
			}

			// Classified from relative rows, the campaign is what the old
			// analysis makes of the whole states.
			oracle, err := oracleAnalyze(t, control, camp.Name)
			if err != nil {
				t.Fatal(err)
			}
			oracleTable := resultsTable(t, control, camp.Name)
			for mode, st := range map[string]*campaign.Store{"solo": solo, "resumed": resumed, "sharded": merged, "control": control} {
				got, err := AnalyzeAndStore(st, camp.Name)
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				if !reflect.DeepEqual(got.Details, oracle.Details) || got.Render() != oracle.Render() {
					t.Errorf("%s: report\n%s\nfrom whole states\n%s", mode, got.Render(), oracle.Render())
				}
				if table := resultsTable(t, st, camp.Name); table != oracleTable {
					t.Errorf("%s: AnalysisResults differ from the whole states'", mode)
				}
			}
		})
	}
}

// TestRowBytesBudget pins the size of what a campaign stores per
// experiment, one seed each: the relative rows under their budgets, and the
// whole rows of a nondeterministic target byte for byte what the parent
// build wrote (the store of cmd/goofi's TestResumeParentBuildStore: the
// quickstart reference run and its first fifty experiments).
func TestRowBytesBudget(t *testing.T) {
	for _, camp := range relativeCampaigns() {
		st := relativeStore(t, camp)
		runInto(t, st, camp, thorTarget)
		mean, _ := stateBytes(storedRows(t, st, camp.Name), campaign.ReferenceName(camp.Name))
		if budget := stateBudget[camp.Name]; mean > budget {
			t.Errorf("%s: mean stateVector %.1f B per experiment row, budget %.0f B", camp.Name, mean, budget)
		}
	}

	// Opened from a copy: opening writes a log beside the file.
	blob, err := os.ReadFile(filepath.Join("..", "campaign", "testdata", "parent-quickstart-half.db"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "parent.db")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := sqldb.OpenAt(path, sqldb.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	parent, err := campaign.NewStore(old)
	if err != nil {
		t.Fatal(err)
	}
	// The campaign as `goofi setup` defined it there.
	camp, err := parent.GetCampaign("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	control := relativeStore(t, camp)
	runInto(t, control, camp, func() core.TargetSystem { return nondeterministic{thorTarget()} })
	got := storedRows(t, control, camp.Name)
	want := storedRows(t, parent, camp.Name)
	if len(want) != 51 {
		t.Fatalf("the parent build's store holds %d rows, want 51", len(want))
	}
	for name, w := range want {
		if g := got[name]; !bytes.Equal(g[0], w[0]) || !bytes.Equal(g[1], w[1]) {
			t.Fatalf("row %s of a nondeterministic target\n%s\n%x\nthe parent build stored\n%s\n%s",
				name, g[0], g[1], w[0], w[1])
		}
	}
}
