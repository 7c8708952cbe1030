// Differential regression test for checkpoint forwarding: the same
// campaign executed with forwarding enabled and disabled must produce
// byte-identical LoggedSystemState records and an identical analysis
// report. This is the correctness bar for the fast-forwarding subsystem
// — forwarding may only change how many cycles are emulated, never what
// is logged.
package goofi_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/scifi"
	"goofi/internal/thor"
)

// runDifferential executes camp on a fresh store with the given board
// count and forwarding setting, returning the summary, the analysis
// report, the JSON-marshalled experiment records in sequence order, and
// the forward set the run used.
func runDifferential(t *testing.T, camp *campaign.Campaign, boards int,
	forwarding bool) (*core.Summary, *analysis.Report, []string, *core.ForwardSet) {
	t.Helper()
	st, tsd := benchStore(t)
	var opts []core.RunnerOption
	if boards > 1 {
		opts = append(opts, core.WithBoards(boards, func() core.TargetSystem {
			return scifi.New(thor.DefaultConfig())
		}))
	}
	if !forwarding {
		opts = append(opts, core.WithForwarding(core.ForwardConfig{Disabled: true}))
	}
	sum, rep, set := runCampaignSet(t, st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, camp, opts...)
	recs, err := st.Experiments(camp.Name)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, 0, len(recs))
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, string(b))
	}
	return sum, rep, rows, set
}

// TestForwardingDifferential is the acceptance gate for checkpoint
// forwarding: across board counts, persistent and transient fault
// models, and workloads with and without an environment simulator, a
// forwarded campaign logs exactly the same records and analysis report
// as a cold one — while emulating measurably fewer cycles. Where a
// faulty run re-joins the reference run it ends there (scifi's rejoin).
func TestForwardingDifferential(t *testing.T) {
	cases := []struct {
		name string
		camp func(name string) *campaign.Campaign
		// converges: some experiment re-joins the reference run. A
		// persistent fault never lets one.
		converges bool
	}{
		{"pid-envsim-transient", func(name string) *campaign.Campaign {
			// PID with the first-order plant: exercises the environment-
			// simulator snapshot path on restore.
			c := pidCampaign(name, 12, 17)
			c.RandomWindow = [2]uint64{200, 4000}
			return c
		}, false},
		{"pid-envsim-converges", func(name string) *campaign.Campaign {
			// The PID loop run long enough for flushed-out faults to
			// re-join the reference: the join points, the shifted end
			// state and the splice of outputs and events.
			c := pidCampaign(name, 300, 1001)
			c.Termination.MaxIterations = 300
			return c
		}, true},
		{"sort-stuckat1-persistent", func(name string) *campaign.Campaign {
			// Sort without a simulator, persistent stuck-at faults:
			// exercises reassertion after a forwarded restore.
			c := sortCampaign(name, 12, 23, []string{"cpu"})
			c.FaultModel = faultmodel.Spec{Kind: faultmodel.StuckAt1}
			return c
		}, false},
		{"pid-stuckat1-persistent", func(name string) *campaign.Campaign {
			// The PID loop under persistent stuck-at faults: reasserted
			// after every exchange, a run is never the reference's again.
			c := pidCampaign(name, 40, 1001)
			c.Locations = []string{"cpu"}
			c.FaultModel = faultmodel.Spec{Kind: faultmodel.StuckAt1}
			return c
		}, false},
	}
	for _, tc := range cases {
		for _, boards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/boards=%d", tc.name, boards), func(t *testing.T) {
				name := fmt.Sprintf("diff-%s-b%d", tc.name, boards)
				coldSum, coldRep, coldRecs, _ := runDifferential(t, tc.camp(name), boards, false)
				warmSum, warmRep, warmRecs, _ := runDifferential(t, tc.camp(name), boards, true)

				if coldSum.Forwarded != 0 || coldSum.CyclesSaved != 0 {
					t.Errorf("cold run reports forwarding: %d forwarded, %d saved",
						coldSum.Forwarded, coldSum.CyclesSaved)
				}
				if warmSum.Forwarded == 0 {
					t.Error("warm run forwarded no experiments")
				}
				if warmSum.CyclesSaved == 0 {
					t.Error("warm run saved no cycles")
				}
				if warmSum.CyclesEmulated >= coldSum.CyclesEmulated {
					t.Errorf("warm run emulated %d cycles, cold %d — no reduction",
						warmSum.CyclesEmulated, coldSum.CyclesEmulated)
				}
				if coldSum.Converged != 0 || coldSum.CyclesConverged != 0 {
					t.Errorf("cold run reports %d converged runs, %d cycles", coldSum.Converged, coldSum.CyclesConverged)
				}
				if tc.converges != (warmSum.Converged > 0) {
					t.Errorf("warm run: %d converged runs, want some = %v", warmSum.Converged, tc.converges)
				}

				if len(coldRecs) != len(warmRecs) {
					t.Fatalf("record counts differ: cold %d, warm %d", len(coldRecs), len(warmRecs))
				}
				for i := range coldRecs {
					if coldRecs[i] != warmRecs[i] {
						t.Errorf("record %d differs\ncold %s\nwarm %s", i, coldRecs[i], warmRecs[i])
					}
				}
				if !reflect.DeepEqual(coldRep, warmRep) {
					t.Errorf("analysis reports differ\ncold %+v\nwarm %+v", coldRep, warmRep)
				}
				t.Logf("forwarded %d/%d, converged %d, cycles emulated %d (cold %d), saved %d, converged %d",
					warmSum.Forwarded, len(warmRecs)-1, warmSum.Converged,
					warmSum.CyclesEmulated, coldSum.CyclesEmulated, warmSum.CyclesSaved, warmSum.CyclesConverged)
			})
		}
	}
}
