package goofi_test

import (
	"fmt"
	"reflect"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/faultmodel"
)

// TestSteadyStateDifferential is the acceptance gate for the steady-state
// skip (scifi's boundary.go): a run whose board state repeats one iteration
// later is moved to its last iteration, and the campaign logs exactly the
// records and the analysis report of a run with forwarding off, which
// skips nothing. Every case that expects skips requires some, so none
// passes by never taking one.
func TestSteadyStateDifferential(t *testing.T) {
	// pidLong is the pid-long benchmark's shape: 1,000 iterations of the
	// PID loop, caches in the fault space, injections in 200:8000.
	pidLong := func(name string, n int) *campaign.Campaign {
		c := pidCampaign(name, n, 1001)
		c.Termination = campaign.Termination{TimeoutCycles: 4_000_000, MaxIterations: 1000}
		return c
	}
	cases := []struct {
		name  string
		camp  func(name string) *campaign.Campaign
		skips bool
	}{
		{"pid-long", func(name string) *campaign.Campaign { return pidLong(name, 300) }, true},
		{"engine", func(name string) *campaign.Campaign {
			// With ten times the default drag the engine settles at its
			// set point within about 200 iterations.
			c := pidLong(name, 150)
			c.EnvSim = &campaign.EnvSimSpec{Name: "engine", Params: map[string]float64{"drag": 0.5}}
			return c
		}, true},
		{"engine-hunting", func(name string) *campaign.Campaign {
			// At the default drag the loop hunts around the set point in a
			// cycle hundreds of iterations long: no state repeats a
			// boundary later, and nothing skips.
			c := pidLong(name, 100)
			c.EnvSim = &campaign.EnvSimSpec{Name: "engine"}
			return c
		}, false},
		{"scripted", func(name string) *campaign.Campaign {
			// The scripted simulator keeps every output it is handed: its
			// state grows each iteration and never repeats.
			c := pidLong(name, 100)
			c.EnvSim = &campaign.EnvSimSpec{Name: "scripted"}
			return c
		}, false},
		{"time-out", func(name string) *campaign.Campaign {
			// No iteration limit: the reference and every settled run end
			// on the time-out, a few iterations after their skip.
			c := pidLong(name, 150)
			c.Termination = campaign.Termination{TimeoutCycles: 120_000}
			return c
		}, true},
		{"window-past-onset", func(name string) *campaign.Campaign {
			// Injections up to cycle 30,000, well after the reference
			// settles (about 15,000): it may not skip before.
			c := pidLong(name, 150)
			c.RandomWindow = [2]uint64{200, 30_000}
			return c
		}, true},
		{"multi-bit", func(name string) *campaign.Campaign {
			c := pidLong(name, 150)
			c.FaultModel.Multiplicity = 3
			return c
		}, true},
		{"persistent", func(name string) *campaign.Campaign {
			// A reasserted fault: no faulty run is a function of its state
			// alone, and none skips; the reference still may.
			c := pidLong(name, 40)
			c.Locations = []string{"cpu"}
			c.FaultModel = faultmodel.Spec{Kind: faultmodel.StuckAt1}
			return c
		}, false},
	}
	for _, tc := range cases {
		for _, boards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/boards=%d", tc.name, boards), func(t *testing.T) {
				name := fmt.Sprintf("steady-%s-b%d", tc.name, boards)
				coldSum, coldRep, coldRecs, _ := runDifferential(t, tc.camp(name), boards, false)
				warmSum, warmRep, warmRecs, set := runDifferential(t, tc.camp(name), boards, true)
				if coldSum.Steady != 0 || coldSum.CyclesSteady != 0 {
					t.Errorf("forwarding off: %d runs skipped %d cycles", coldSum.Steady, coldSum.CyclesSteady)
				}
				// The reference is one of the runs counted, so an
				// experiment skipped when more than one run did.
				if tc.skips != (warmSum.Steady > 1) || (warmSum.Steady > 0) != (warmSum.CyclesSteady > 0) {
					t.Errorf("forwarding on: %d runs skipped %d cycles; want experiments skipping = %v",
						warmSum.Steady, warmSum.CyclesSteady, tc.skips)
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
				if c := tc.camp(name); c.RandomWindow[1] > 8000 {
					// The def-use table describes the reference up to the
					// window's last injection point.
					if _, _, ok := set.DefUse.InjectionPoint(c.RandomWindow[1]-1, false); !ok {
						t.Errorf("the reference's def-use table ends before the window does")
					}
				}
				t.Logf("steady %d runs, %d cycles; converged %d; pruned %d; cycles emulated %d (cold %d)",
					warmSum.Steady, warmSum.CyclesSteady, warmSum.Converged, warmSum.Pruned.Total(),
					warmSum.CyclesEmulated, coldSum.CyclesEmulated)
			})
		}
	}
}
