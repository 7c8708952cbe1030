package scifi

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"goofi/internal/asm"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/thor"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// recordJSON marshals an experiment's logged record for byte-comparison.
func recordJSON(t *testing.T, ex *core.Experiment) []byte {
	t.Helper()
	rec, err := ex.Record()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runDirect executes one experiment of camp on tgt through the SCIFI
// algorithm, with a deterministic per-seq RNG.
func runDirect(t *testing.T, tgt *Target, camp *campaign.Campaign, seq int,
	fault *faultmodel.Fault, trig trigger.Spec) *core.Experiment {
	t.Helper()
	name := campaign.ExperimentName(camp.Name, seq)
	if seq < 0 {
		name = campaign.ReferenceName(camp.Name)
	}
	ex := &core.Experiment{
		Campaign: camp,
		Seq:      seq,
		Name:     name,
		Fault:    fault,
		Trigger:  trig,
		RNG:      rand.New(rand.NewSource(int64(seq + 1))),
	}
	if err := core.SCIFI.Run(tgt, ex); err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestForwardTortureEveryCheckpoint records a dense checkpoint set over a
// PID reference run, then restores every single checkpoint and verifies
// the restored experiment is byte-identical to a cold run of the same
// experiment — the torture version of the equivalence bar.
func TestForwardTortureEveryCheckpoint(t *testing.T) {
	camp := pidCampaign("torture", 1, 5)
	camp.RandomWindow = [2]uint64{}
	tgt := New(thorCfg())

	plan := &core.ForwardPlan{Campaign: camp.Name, MaxBytes: core.DefaultMaxForwardBytes}
	for c := uint64(40); c < 4000; c += 120 {
		plan.Cycles = append(plan.Cycles, c)
	}
	tgt.ArmForwardRecording(plan)
	ref := runDirect(t, tgt, camp, -1, nil, trigger.Spec{})
	if ref.Result.Outcome.Status != campaign.OutcomeCompleted {
		t.Fatalf("reference outcome = %+v", ref.Result.Outcome)
	}
	set := tgt.TakeForwardSet()
	if set == nil || len(set.Checkpoints) < 8 {
		t.Fatalf("recorded %v checkpoints, want a dense set", set)
	}

	fault := &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{37, 70}}
	for i, cp := range set.Checkpoints {
		// Inject shortly after this checkpoint (and, for the first one,
		// exactly at it — the counter-exactness corner).
		at := cp.Cycle + 17
		if i == 0 {
			at = cp.Cycle
		}
		trig := trigger.Spec{Kind: "cycle", Cycle: at}

		tgt.SetForwardSet(nil)
		cold := runDirect(t, tgt, camp, i, fault, trig)
		if cold.Forwarded {
			t.Fatalf("cp %d: cold run claims it forwarded", i)
		}

		tgt.SetForwardSet(&core.ForwardSet{
			Campaign:    camp.Name,
			Checkpoints: set.Checkpoints[i : i+1],
		})
		warm := runDirect(t, tgt, camp, i, fault, trig)
		if !warm.Forwarded || warm.ForwardedFrom != cp.Cycle {
			t.Fatalf("cp %d (cycle %d): not forwarded (%v from %d)",
				i, cp.Cycle, warm.Forwarded, warm.ForwardedFrom)
		}
		if c, w := recordJSON(t, cold), recordJSON(t, warm); !reflect.DeepEqual(c, w) {
			t.Errorf("cp %d (cycle %d, inject@%d): records differ\ncold %s\nwarm %s",
				i, cp.Cycle, at, c, w)
		}
	}
	tgt.SetForwardSet(nil)
}

// TestForwardPersistentFaultEquivalence covers the stuck-at path: the
// fault is reasserted every slice after injection, and a forwarded run
// must still match the cold run exactly.
func TestForwardPersistentFaultEquivalence(t *testing.T) {
	camp := pidCampaign("torture-stuck", 1, 9)
	camp.RandomWindow = [2]uint64{}
	tgt := New(thorCfg())

	plan := &core.ForwardPlan{Campaign: camp.Name,
		Cycles: []uint64{500, 1500, 2500}, MaxBytes: core.DefaultMaxForwardBytes}
	tgt.ArmForwardRecording(plan)
	runDirect(t, tgt, camp, -1, nil, trigger.Spec{})
	set := tgt.TakeForwardSet()
	if set == nil || len(set.Checkpoints) != 3 {
		t.Fatalf("recorded %v", set)
	}

	fault := &faultmodel.Fault{Kind: faultmodel.StuckAt1, Bits: []int{64}}
	trig := trigger.Spec{Kind: "cycle", Cycle: 1700}

	tgt.SetForwardSet(nil)
	cold := runDirect(t, tgt, camp, 0, fault, trig)
	tgt.SetForwardSet(set)
	warm := runDirect(t, tgt, camp, 0, fault, trig)
	if !warm.Forwarded || warm.ForwardedFrom != 1500 {
		t.Fatalf("warm = forwarded %v from %d, want from 1500", warm.Forwarded, warm.ForwardedFrom)
	}
	if c, w := recordJSON(t, cold), recordJSON(t, warm); !reflect.DeepEqual(c, w) {
		t.Errorf("persistent fault records differ\ncold %s\nwarm %s", c, w)
	}
	tgt.SetForwardSet(nil)
}

// TestForwardFallsBackCold verifies the transparent-fallback rules: a
// non-cycle-monotonic trigger, a foreign campaign's set, an injection
// point before every checkpoint, and a reference run must all ignore the
// installed set.
func TestForwardFallsBackCold(t *testing.T) {
	camp := pidCampaign("fallback", 1, 3)
	camp.RandomWindow = [2]uint64{}
	tgt := New(thorCfg())
	plan := &core.ForwardPlan{Campaign: camp.Name,
		Cycles: []uint64{800}, MaxBytes: core.DefaultMaxForwardBytes}
	tgt.ArmForwardRecording(plan)
	runDirect(t, tgt, camp, -1, nil, trigger.Spec{})
	set := tgt.TakeForwardSet()
	if set == nil {
		t.Fatal("no set recorded")
	}
	fault := &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{40}}

	tgt.SetForwardSet(set)
	if ex := runDirect(t, tgt, camp, 0, fault,
		trigger.Spec{Kind: "branch", Occurrence: 5}); ex.Forwarded {
		t.Error("occurrence-counting trigger was forwarded")
	}
	if ex := runDirect(t, tgt, camp, 1, fault,
		trigger.Spec{Kind: "cycle", Cycle: 200}); ex.Forwarded {
		t.Error("injection before the first checkpoint was forwarded")
	}
	other := *camp
	other.Name = "fallback-other"
	if ex := runDirect(t, tgt, &other, 2, fault,
		trigger.Spec{Kind: "cycle", Cycle: 900}); ex.Forwarded {
		t.Error("a foreign campaign's set was used")
	}
	if ex := runDirect(t, tgt, camp, -1, nil, trigger.Spec{}); ex.Forwarded {
		t.Error("the reference run was forwarded")
	}
	tgt.SetForwardSet(nil)
}

// TestReusedTargetMatchesFresh runs consecutive experiments — including
// one that installs recovery trap handlers — on a single reused Target
// and on fresh Targets, and requires identical records: InitTestCard must
// leave no residue (trap handlers, breakpoints, TAP state, forwarding
// scratch) from one experiment to the next. The campaigns alternate, so
// the program the board remembers from its last LoadWorkload is by turns
// the right one and another campaign's.
func TestReusedTargetMatchesFresh(t *testing.T) {
	assertCamp := pidCampaign("reuse-assert", 3, 41)
	assertCamp.Workload = workload.PIDAssert()
	assertCamp.RandomWindow = [2]uint64{}
	sortCamp := sortCampaign("reuse-sort", 3, 41)
	sortCamp.RandomWindow = [2]uint64{}
	pidCamp := pidCampaign("reuse-pid", 3, 41)
	pidCamp.RandomWindow = [2]uint64{}

	type exp struct {
		camp  *campaign.Campaign
		fault faultmodel.Fault
		trig  trigger.Spec
	}
	exps := []exp{
		// Installs trap handlers and runs the env simulator.
		{assertCamp, faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{37}},
			trigger.Spec{Kind: "cycle", Cycle: 900}},
		// No handlers, no simulator: leaked state would show here.
		{sortCamp, faultmodel.Fault{Kind: faultmodel.StuckAt0, Bits: []int{101}},
			trigger.Spec{Kind: "cycle", Cycle: 400}},
		{sortCamp, faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{260}},
			trigger.Spec{Kind: "cycle", Cycle: 1100}},
		// Back to the first workload, then to a third that differs from
		// it by a few instructions, and to sort once more.
		{assertCamp, faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{70}},
			trigger.Spec{Kind: "cycle", Cycle: 1300}},
		{pidCamp, faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{70}},
			trigger.Spec{Kind: "cycle", Cycle: 1300}},
		{sortCamp, faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{260}},
			trigger.Spec{Kind: "cycle", Cycle: 1100}},
	}

	reused := New(thorCfg())
	for i, e := range exps {
		f := e.fault
		onReused := runDirect(t, reused, e.camp, i, &f, e.trig)
		if want, err := asm.AssembleCached(e.camp.Workload.Source); err != nil || reused.prog != want {
			t.Fatalf("experiment %d: board ran program %p, the workload assembles to %p (%v)", i, reused.prog, want, err)
		}
		f2 := e.fault
		onFresh := runDirect(t, New(thorCfg()), e.camp, i, &f2, e.trig)
		r, fr := recordJSON(t, onReused), recordJSON(t, onFresh)
		if !reflect.DeepEqual(r, fr) {
			t.Errorf("experiment %d: reused board diverged from fresh\nreused %s\nfresh  %s",
				i, r, fr)
		}
	}
}

func thorCfg() thor.Config { return thor.DefaultConfig() }
