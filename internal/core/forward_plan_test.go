package core

import (
	"slices"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/trigger"
)

// planFor returns the checkpoint plan of fakeCampaign after edit.
func planFor(t *testing.T, edit func(r *Runner)) *ForwardPlan {
	t.Helper()
	r, err := NewRunner(newFakeTarget(), SCIFI, fakeCampaign(10), fakeTSD())
	if err != nil {
		t.Fatal(err)
	}
	edit(r)
	return r.forwardPlan()
}

// TestForwardMarginBoundary pins the margin rule at its edges: a fixed
// trigger point gets one checkpoint exactly forwardMargin before it — the
// capture lands at the first instruction boundary at or after the planned
// cycle, and no instruction is that long, so it is always usable — a
// point inside the margin gets a plan with no cycle (still recorded, for
// the def-use table), and a window starts one margin early.
func TestForwardMarginBoundary(t *testing.T) {
	for _, tc := range []struct {
		trig trigger.Spec
		want []uint64
	}{
		{trigger.Spec{Kind: "cycle", Cycle: 1000}, []uint64{1000 - forwardMargin}},
		{trigger.Spec{Kind: "cycle", Cycle: forwardMargin + 1}, []uint64{1}},
		{trigger.Spec{Kind: "cycle", Cycle: forwardMargin}, nil},
		{trigger.Spec{Kind: "instret", Count: 700}, []uint64{700 - forwardMargin}},
		{trigger.Spec{Kind: "rtc", Period: 40, Occurrence: 1}, nil},
	} {
		plan := planFor(t, func(r *Runner) { r.camp.Trigger = tc.trig })
		if plan == nil || !slices.Equal(plan.Cycles, tc.want) {
			t.Errorf("trigger %+v: plan %+v, want cycles %v", tc.trig, plan, tc.want)
		}
	}
	window := func(lo, hi uint64) []uint64 {
		return planFor(t, func(r *Runner) { r.camp.RandomWindow = [2]uint64{lo, hi} }).Cycles
	}
	if c := window(200, 8000); c[0] != 200-forwardMargin {
		t.Errorf("window from 200 starts recording at %d, want %d", c[0], 200-forwardMargin)
	}
	if c := window(10, 1600); c[0] != 1 {
		t.Errorf("window from inside the margin starts recording at %d, want 1", c[0])
	}
}

// TestForwardPlanInterval pins interval placement: the window divided
// over the checkpoint budget, never closer than minForwardInterval, never
// past the window, never more than the budget — and no plan at all where
// forwarding cannot apply.
func TestForwardPlanInterval(t *testing.T) {
	check := func(lo, hi, wantStep uint64, wantLen int) {
		t.Helper()
		plan := planFor(t, func(r *Runner) { r.camp.RandomWindow = [2]uint64{lo, hi} })
		if plan.Campaign != "fc" || plan.MaxBytes != DefaultMaxForwardBytes {
			t.Errorf("window %d:%d: plan header %+v", lo, hi, plan)
		}
		if len(plan.Cycles) != wantLen {
			t.Fatalf("window %d:%d: %d checkpoints, want %d", lo, hi, len(plan.Cycles), wantLen)
		}
		for i, c := range plan.Cycles {
			if c >= hi || (i > 0 && c-plan.Cycles[i-1] != wantStep) {
				t.Fatalf("window %d:%d: cycles %v, want steps of %d below %d", lo, hi, plan.Cycles, wantStep, hi)
			}
		}
	}
	check(200, 8000, (8000-200)/DefaultMaxForwardCheckpoints, DefaultMaxForwardCheckpoints)
	check(10, 1600, minForwardInterval, 25) // 1, 65, … 1537
	check(1000, 1000+64*1000, 1000, DefaultMaxForwardCheckpoints)

	for name, edit := range map[string]func(r *Runner){
		"disabled":       func(r *Runner) { r.fw.Disabled = true },
		"detail mode":    func(r *Runner) { r.camp.LogMode = campaign.LogDetail },
		"prefix trigger": func(r *Runner) { r.camp.Trigger = trigger.Spec{Kind: "breakpoint", Addr: 8} },
		// The step list answers, not the name: only pre-runtime SWIFI has
		// no waitForBreakpoint, so only its reference run records nothing.
		"no waitForBreakpoint step": func(r *Runner) { r.alg = PreRuntimeSWIFI },
	} {
		if plan := planFor(t, edit); plan != nil {
			t.Errorf("%s: got plan %+v, want none", name, plan)
		}
	}
	for _, alg := range []Algorithm{RuntimeSWIFI, PinLevel} {
		if planFor(t, func(r *Runner) { r.alg = alg }) == nil {
			t.Errorf("%s: no plan, though it waits for a breakpoint", alg.Name)
		}
	}
}
