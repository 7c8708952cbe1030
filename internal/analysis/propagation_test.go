package analysis

import (
	"context"
	"strings"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// runDetailCampaign executes a small detail-mode SCIFI campaign.
func runDetailCampaign(t *testing.T, name string, n int, seed int64) *campaign.Store {
	t.Helper()
	camp := &campaign.Campaign{
		Name:           name,
		TargetName:     "thor-board",
		ChainName:      "internal",
		Locations:      []string{"cpu.r1", "cpu.r2", "cpu.r7"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient},
		Trigger:        trigger.Spec{Kind: "cycle"},
		RandomWindow:   [2]uint64{100, 1200},
		NumExperiments: n,
		Seed:           seed,
		Termination:    campaign.Termination{TimeoutCycles: 30_000},
		Workload:       workload.Sort(),
		LogMode:        campaign.LogDetail,
	}
	st, err := campaign.NewStore(sqldb.Open())
	if err != nil {
		t.Fatal(err)
	}
	tsd := scifi.TargetSystemData("thor-board")
	if err := st.PutTargetSystem(tsd); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign(camp); err != nil {
		t.Fatal(err)
	}
	r, err := core.NewRunner(scifi.New(thor.DefaultConfig()), core.SCIFI, camp, tsd, core.WithSink(st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPropagationCurve(t *testing.T) {
	st := runDetailCampaign(t, "prop", 4, 3)
	recs, err := st.Experiments("prop")
	if err != nil {
		t.Fatal(err)
	}
	analyzed := 0
	for _, rec := range recs {
		if rec.IsReference() || !rec.Data.Injected {
			continue
		}
		p, err := PropagationCurve(st, rec.Name)
		if err != nil {
			t.Fatalf("PropagationCurve(%s): %v", rec.Name, err)
		}
		analyzed++
		if p.Steps == 0 {
			t.Errorf("%s: empty propagation", rec.Name)
			continue
		}
		// The curve must be internally consistent.
		if p.FirstError >= 0 {
			if p.Points[p.FirstError].DiffBits == 0 {
				t.Errorf("%s: FirstError step has zero diff", rec.Name)
			}
			for i := 0; i < p.FirstError; i++ {
				if p.Points[i].DiffBits != 0 {
					t.Errorf("%s: diff before FirstError at step %d", rec.Name, i)
				}
			}
		}
		max := 0
		for _, pt := range p.Points {
			if pt.DiffBits > max {
				max = pt.DiffBits
			}
		}
		if max != p.MaxDiffBits {
			t.Errorf("%s: MaxDiffBits %d != observed %d", rec.Name, p.MaxDiffBits, max)
		}
		if p.FirstDivergence >= 0 && p.FirstError >= 0 && p.FirstDivergence < p.FirstError {
			// Control flow can only diverge at or after the first
			// state error when PC is among observed locations... PC is
			// not in our observed set here, so divergence markers use
			// the full PC field; state errors use the observed subset.
			t.Logf("%s: divergence (%d) before observed state error (%d) — PC outside observe set",
				rec.Name, p.FirstDivergence, p.FirstError)
		}
	}
	if analyzed == 0 {
		t.Fatal("no injected experiments to analyze")
	}
}

func TestPropagationSummaryRenders(t *testing.T) {
	st := runDetailCampaign(t, "prop2", 2, 9)
	recs, err := st.Experiments("prop2")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.IsReference() || !rec.Data.Injected {
			continue
		}
		p, err := PropagationCurve(st, rec.Name)
		if err != nil {
			t.Fatal(err)
		}
		s := p.Summary()
		if !strings.Contains(s, "propagation of") || !strings.Contains(s, "corrupted bits") {
			t.Errorf("summary = %q", s)
		}
		return
	}
	t.Fatal("no injected experiment found")
}

func TestPropagationRequiresDetailTraces(t *testing.T) {
	// A normal-mode campaign has no traces.
	st := runSortCampaign(t, "noprop", 2, 5)
	recs, err := st.Experiments("noprop")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.IsReference() {
			continue
		}
		if _, err := PropagationCurve(st, rec.Name); err == nil {
			t.Error("propagation without detail traces accepted")
		}
		break
	}
	if _, err := PropagationCurve(st, "ghost"); err == nil {
		t.Error("propagation of unknown experiment accepted")
	}
}

// TestPropagationHostileScanLength: a trace step whose scan state carries
// a length header that is negative as an int is a reported error naming
// the step, on either side of the comparison, never a panic.
func TestPropagationHostileScanLength(t *testing.T) {
	for _, header := range []uint64{0xFFFFFFFFFFFFFF80, 0xFFFFFFFFFFFFFFFF, 1<<63 + 5} {
		st := runDetailCampaign(t, "prophostile", 2, 3)
		exp := campaign.ExperimentName("prophostile", 0)
		damage := func(parent string) {
			trace, err := st.Trace(parent)
			if err != nil || len(trace) < 3 {
				t.Fatalf("trace of %s: %d steps, %v", parent, len(trace), err)
			}
			replaceRecord(t, st, trace[2].Name, func(rec *campaign.ExperimentRecord) {
				rec.State.Scan = hostileScan(header)
			})
		}
		damage(exp)
		if _, err := PropagationCurve(st, exp); err == nil ||
			!strings.HasPrefix(err.Error(), "analysis: trace step 2: bitvec: truncated body: header says") {
			t.Errorf("header %#x in the experiment's trace: %v", header, err)
		}
		damage(campaign.ReferenceName("prophostile"))
		other := campaign.ExperimentName("prophostile", 1)
		if _, err := PropagationCurve(st, other); err == nil ||
			!strings.HasPrefix(err.Error(), "analysis: reference step 2: bitvec: truncated body: header says") {
			t.Errorf("header %#x in the reference's trace: %v", header, err)
		}
	}
}

func TestPropagationReferenceIsZeroDiff(t *testing.T) {
	// Comparing the reference against itself (first steps of two equal
	// traces) must show zero corrupted bits: an uninjected experiment's
	// trace matches the reference until termination.
	st := runDetailCampaign(t, "prop3", 4, 3)
	recs, err := st.Experiments("prop3")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.IsReference() || rec.Data.Injected {
			continue
		}
		p, err := PropagationCurve(st, rec.Name)
		if err != nil {
			t.Fatal(err)
		}
		if p.FirstError != -1 || p.MaxDiffBits != 0 {
			t.Errorf("uninjected run shows errors: first=%d max=%d", p.FirstError, p.MaxDiffBits)
		}
		return
	}
	t.Skip("every experiment injected; nothing to verify")
}
