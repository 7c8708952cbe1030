// Differential test for resumed campaigns: a run that continues from a
// durable cursor runs its reference like any other run, so what it
// forwards, prunes, converges and skips is what a fresh run of the same
// sequence numbers does, and the store ends with the uninterrupted run's
// rows.
package goofi_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
)

// runStopped executes camp into st the way `goofi run` does — a batching
// sink, the default cursor cadence, boards from a factory — and stops it
// once stopAt experiments are handed over (0 runs it out).
func runStopped(t *testing.T, st *campaign.Store, camp *campaign.Campaign, boards, stopAt int,
	opts ...core.RunnerOption) *core.Summary {
	t.Helper()
	factory := func() core.TargetSystem { return scifi.New(thor.DefaultConfig()) }
	sink := campaign.NewBatchingSink(st, 0)
	var r *core.Runner
	opts = append([]core.RunnerOption{
		core.WithSink(&rowHook{CheckpointSink: sink, at: func(k int) {
			if k == stopAt {
				r.Stop()
			}
		}}),
		core.WithBoards(boards, factory),
		core.WithCheckpoints(core.DefaultCheckpointInterval),
	}, opts...)
	r, err := core.NewRunner(factory(), core.SCIFI, camp, scifi.TargetSystemData(camp.TargetName), opts...)
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
	return sum
}

// rowHook calls at after every experiment end row the sink behind it has
// taken (the reference's not counted) with how many it has taken: the
// hand-over stage logs each row in plan order just before it resolves it,
// so a Stop from at(k) ends the run with rows 0..k-1.
type rowHook struct {
	core.CheckpointSink
	rows int
	at   func(k int)
}

func (h *rowHook) LogExperiment(rec *campaign.ExperimentRecord) error {
	if err := h.CheckpointSink.LogExperiment(rec); err != nil {
		return err
	}
	if rec.Step < 0 && !rec.IsReference() {
		h.rows++
		h.at(h.rows)
	}
	return nil
}

// storedRows renders every LoggedSystemState row of a campaign, its
// stored blobs as they are, in a canonical order.
func storedRows(t *testing.T, st *campaign.Store, name string) []string {
	t.Helper()
	r, err := st.DB().Query(`SELECT experimentName, parentExperiment, step, experimentData, stateVector
		FROM LoggedSystemState WHERE campaignName = ?`, sqldb.Text(name))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out = append(out, strings.Join(cells, "|"))
	}
	slices.Sort(out)
	return out
}

// TestResumedPruningMatchesFreshRange: a campaign stopped at seq k and
// resumed re-runs its reference, which records the set the resumed part
// forwards, prunes, converges and steady-skips from. Its summary — pruned,
// converged and steady counts included — must equal that of a fresh run
// of [k, n), which runs the same reference and the same experiments, and
// the store must hold the uninterrupted run's rows byte for byte. Both
// shapes of the benchmark: sort16 (pruning, no iteration boundary) and
// pid-long (all four mechanisms), on one board and on three.
func TestResumedPruningMatchesFreshRange(t *testing.T) {
	cases := []struct {
		name       string
		camp       func(name string) *campaign.Campaign
		closedLoop bool
	}{
		{"sort", func(name string) *campaign.Campaign {
			return sortCampaign(name, 240, 1001, []string{"cpu"})
		}, false},
		{"pid-long", func(name string) *campaign.Campaign {
			c := pidCampaign(name, 120, 1001)
			c.Termination = campaign.Termination{TimeoutCycles: 4_000_000, MaxIterations: 1000}
			return c
		}, true},
	}
	for _, tc := range cases {
		for _, boards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/boards=%d", tc.name, boards), func(t *testing.T) {
				name := fmt.Sprintf("resume-%s-b%d", tc.name, boards)
				camp := tc.camp(name)
				n, k := camp.NumExperiments, camp.NumExperiments/2
				store := func() *campaign.Store {
					st, _ := benchStore(t)
					if err := st.PutCampaign(camp); err != nil {
						t.Fatal(err)
					}
					return st
				}

				whole := store()
				runStopped(t, whole, camp, boards, 0)

				st := store()
				if first := runStopped(t, st, camp, boards, k); first.Experiments != k {
					t.Fatalf("stopped run handed over %d experiments, want %d", first.Experiments, k)
				}
				cp, err := st.RecoverCursor(name)
				if err != nil {
					t.Fatal(err)
				}
				if !cp.Reference || fmt.Sprint(cp.Ranges) != fmt.Sprint(campaign.SeqRanges{{0, k - 1}}) {
					t.Fatalf("cursor after the stop: reference %v, completed %v, want seqs 0..%d",
						cp.Reference, cp.Ranges, k-1)
				}
				rest := runStopped(t, st, camp, boards, 0, core.WithResume(cp))
				fresh := runStopped(t, store(), camp, boards, 0, core.WithShardRange(k, n))

				if rest.Pruned.Total() == 0 || tc.closedLoop && (rest.Converged == 0 || rest.Steady < 2) {
					t.Errorf("resumed part: pruned %+v, converged %d, steady %d; want all of them at work",
						rest.Pruned, rest.Converged, rest.Steady)
				}
				if rest.Pruned != fresh.Pruned || rest.Converged != fresh.Converged || rest.Steady != fresh.Steady {
					t.Errorf("resumed part: pruned %+v, converged %d, steady %d; fresh range: %+v, %d, %d",
						rest.Pruned, rest.Converged, rest.Steady, fresh.Pruned, fresh.Converged, fresh.Steady)
				}
				if !reflect.DeepEqual(rest, fresh) {
					t.Errorf("summaries differ\nresumed %+v\n  fresh %+v", rest, fresh)
				}
				t.Logf("resumed %d of %d: pruned %d, converged %d, steady %d, forwarded %d, %d cycles emulated",
					rest.Experiments, n, rest.Pruned.Total(), rest.Converged, rest.Steady, rest.Forwarded, rest.CyclesEmulated)
				got, want := storedRows(t, st, name), storedRows(t, whole, name)
				if len(got) != len(want) {
					t.Fatalf("%d rows stored, the uninterrupted run stored %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("row %d differs from the uninterrupted run's\n got %.200s\nwant %.200s", i, got[i], want[i])
					}
				}
			})
		}
	}
}
