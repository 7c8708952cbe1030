package scifi

import (
	"reflect"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/envsim"
	"goofi/internal/faultmodel"
	"goofi/internal/thor"
	"goofi/internal/trigger"
)

// closedLoopCampaign is the PID campaign ended by its iteration limit
// after the given number of iterations (55 cycles each).
func closedLoopCampaign(name string, iterations int) *campaign.Campaign {
	camp := pidCampaign(name, 1, 7)
	camp.RandomWindow = [2]uint64{}
	camp.Termination = campaign.Termination{TimeoutCycles: 4_000_000, MaxIterations: iterations}
	return camp
}

// TestClosedLoopAllocsIndependentOfIterations: what a closed-loop
// experiment allocates does not grow with its iterations, beyond the
// growth steps of the slice that holds a value per iteration (the
// published outputs). It used to be three allocations per
// iteration: the drained outputs, the simulator's inputs, the input queue.
func TestClosedLoopAllocsIndependentOfIterations(t *testing.T) {
	tgt := New(thorCfg())
	r9, err := thor.ScanFieldByName("cpu.r9") // a register the controller never uses
	if err != nil {
		t.Fatal(err)
	}
	fault := &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{r9.Offset + 3}}
	allocs := func(iterations int) float64 {
		camp := closedLoopCampaign("closed-loop-allocs", iterations)
		run := func() {
			ex := runDirect(t, tgt, camp, 0, fault, trigger.Spec{Kind: "cycle", Cycle: 1000})
			if out := ex.Result.Outcome; out.Status != campaign.OutcomeCompleted || out.Iterations != iterations {
				t.Fatalf("outcome %+v, want %d completed iterations", out, iterations)
			}
			if got := len(ex.Result.Outputs[camp.Workload.OutputPort]); got != iterations {
				t.Fatalf("%d outputs for %d iterations", got, iterations)
			}
		}
		run() // the board's buffers reach their size
		return testing.AllocsPerRun(5, run)
	}
	short, long := allocs(100), allocs(1000)
	t.Logf("allocations per experiment: %v at 100 iterations, %v at 1,000", short, long)
	if long-short > 12 {
		t.Errorf("900 more iterations cost %v more allocations (%v → %v), want slice-growth steps only",
			long-short, short, long)
	}
}

// TestExchangeBufferIsCopied: what a simulator returns from Exchange is
// its own buffer, overwritten by the next Exchange; the values the board
// queued on the input port must be copies. After the download and one
// more Exchange behind the board's back, the workload's first two INs
// still read the initial sensor value and setpoint.
func TestExchangeBufferIsCopied(t *testing.T) {
	camp := closedLoopCampaign("exchange-copied", 10)
	camp.EnvSim.Params = map[string]float64{"x0": 3, "setpoint": 50}
	tgt := New(thorCfg())
	ex := &core.Experiment{Campaign: camp, Seq: -1, Name: campaign.ReferenceName(camp.Name)}
	for _, step := range []func(*core.Experiment) error{tgt.InitTestCard, tgt.LoadWorkload, tgt.WriteMemory} {
		if err := step(ex); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := envsim.NewRegistry().New(camp.EnvSim.Name, camp.EnvSim.Params)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]uint32(nil), fresh.Exchange(nil)...)
	if got := tgt.sim.Exchange([]uint32{40 << 8}); reflect.DeepEqual(got, want) {
		t.Fatalf("the second exchange returned the first one's values %v: nothing to tell a copy by", got)
	}
	cpu := tgt.CPU()
	for cpu.Instret() < 4 { // ldi r4; kick; in r1; in r2
		cpu.Step()
	}
	if got := []uint32{cpu.Regs[1], cpu.Regs[2]}; !reflect.DeepEqual(got, want) {
		t.Errorf("the workload read %v from its input port, the first exchange returned %v", got, want)
	}
}

// countingPlant is the first-order plant counting its snapshots — one per
// capture the recorder makes, planned point or horizon guard, and one per
// join point (boundary.go).
type countingPlant struct {
	envsim.FirstOrderPlant
	snapshots *int
}

func (s *countingPlant) SnapshotState() any {
	*s.snapshots++
	return s.FirstOrderPlant.SnapshotState()
}

// recordReference runs camp's reference run on tgt with checkpoints
// planned every interval cycles up to limit, and returns the set.
func recordReference(t *testing.T, tgt *Target, camp *campaign.Campaign, interval, limit uint64) *core.ForwardSet {
	t.Helper()
	plan := &core.ForwardPlan{Campaign: camp.Name, MaxBytes: core.DefaultMaxForwardBytes}
	for c := interval; c < limit; c += interval {
		plan.Cycles = append(plan.Cycles, c)
	}
	tgt.ArmForwardRecording(plan)
	ref := runDirect(t, tgt, camp, -1, nil, trigger.Spec{})
	if ref.Result.Outcome.Status != campaign.OutcomeCompleted {
		t.Fatalf("reference outcome = %+v", ref.Result.Outcome)
	}
	set := tgt.TakeForwardSet()
	if set == nil || len(set.Checkpoints) == 0 {
		t.Fatalf("recorded %+v, want checkpoints", set)
	}
	return set
}

// assertForwardedMatchesCold injects fault at cycle at, cold and restored
// from cp alone, and requires the restored run to have used cp and the
// two records to be the same bytes.
func assertForwardedMatchesCold(t *testing.T, tgt *Target, camp *campaign.Campaign, seq int,
	cp *core.ForwardCheckpoint, at uint64) {
	t.Helper()
	fault := &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{37, 70}}
	trig := trigger.Spec{Kind: "cycle", Cycle: at}
	tgt.SetForwardSet(nil)
	cold := runDirect(t, tgt, camp, seq, fault, trig)
	tgt.SetForwardSet(&core.ForwardSet{Campaign: camp.Name, Checkpoints: []*core.ForwardCheckpoint{cp}})
	warm := runDirect(t, tgt, camp, seq, fault, trig)
	tgt.SetForwardSet(nil)
	if !warm.Forwarded || warm.ForwardedFrom != cp.Cycle {
		t.Fatalf("checkpoint at %d, injection at %d: not forwarded (%v from %d)",
			cp.Cycle, at, warm.Forwarded, warm.ForwardedFrom)
	}
	if c, w := recordJSON(t, cold), recordJSON(t, warm); !reflect.DeepEqual(c, w) {
		t.Errorf("checkpoint at %d, injection at %d: records differ\ncold %s\nwarm %s", cp.Cycle, at, c, w)
	}
}

// TestHorizonGuardRefreshedOncePerInterval: a window that reaches past the
// reference run's end leaves plan points pending, and a loop top short of
// the pending point refreshes the provisional checkpoint — but not at
// every iteration boundary: once per plan interval, halfway through it.
// The run makes two captures per interval it lasts, not one per
// iteration; the promoted guard lies within half an interval of the
// run's last loop top; and injections at it, after it and beyond the
// run's end log the cold run's rows.
func TestHorizonGuardRefreshedOncePerInterval(t *testing.T) {
	const interval, iterations = 400, 62
	captures := 0
	reg := envsim.NewRegistry()
	reg.Register("first-order-plant", func() envsim.Simulator { return &countingPlant{snapshots: &captures} })
	camp := closedLoopCampaign("horizon-guard", iterations)
	tgt := New(thorCfg(), WithEnvRegistry(reg))
	// Under 3,500 cycles of run, points planned to 8,000: 8 are reached.
	set := recordReference(t, tgt, camp, interval, 8000)
	// The join points snapshot the simulator at every iteration boundary
	// on purpose; the checkpoints' captures are the rest.
	captures -= len(set.Rejoin.(*rejoin).points)
	end := runDirect(t, tgt, camp, -1, nil, trigger.Spec{}).Result.Outcome.Cycles
	planned, iterationCycles := int(end/interval), end/iterations
	if len(set.Checkpoints) != planned+1 {
		t.Fatalf("%d checkpoints for a %d-cycle run, want %d planned and the guard", len(set.Checkpoints), end, planned)
	}
	// Every iteration boundary used to capture: 62, and the planned 8.
	if captures > 2*(planned+1) {
		t.Errorf("%d captures in %d iterations over %d intervals, want one guard per interval beside the planned points",
			captures, iterations, planned)
	}
	guard, lastPlanned := set.Checkpoints[planned], set.Checkpoints[planned-1]
	// The last loop top is the start of the final iteration, and loop tops
	// are an iteration apart.
	if guard.Cycle < lastPlanned.Cycle+interval/2 || guard.Cycle+interval/2+2*iterationCycles <= end {
		t.Errorf("guard at cycle %d; last planned checkpoint at %d, run ended at %d", guard.Cycle, lastPlanned.Cycle, end)
	}
	for i, at := range []uint64{guard.Cycle, guard.Cycle + 30, end - 1, end + 500} {
		assertForwardedMatchesCold(t, tgt, camp, i, guard, at)
	}
}
