package scifi

import (
	"bytes"
	"math/rand"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/thor"
	"goofi/internal/trigger"
)

// rejoinFixture is a 300-iteration PID loop, its reference run recorded on
// a fresh board with checkpoints every 200 cycles to 8,000 — join points
// from cycle 200 on, as a campaign windowed 200:8000 plans them.
func rejoinFixture(t *testing.T) (*Target, *campaign.Campaign, *core.ForwardSet) {
	t.Helper()
	camp := closedLoopCampaign("rejoin", 300)
	tgt := New(thorCfg())
	set := recordReference(t, tgt, camp, 200, 8000)
	if _, ok := set.Rejoin.(*rejoin); !ok {
		t.Fatal("the reference run recorded no join points")
	}
	return tgt, camp, set
}

// point returns the join point of iteration first+k as a faulty run there
// is compared with it: recorded or, inside the steady stretch, the
// stretch's first with the stretch's shift and outputs added.
func (j *rejoin) point(k int) (joinPoint, bool) {
	p, n := j.at(k)
	if p == nil {
		return joinPoint{}, false
	}
	jp := *p
	jp.shift = jp.shift.Add(j.steady.d.Times(uint64(n)))
	jp.outputs += n * j.steady.k
	return jp, true
}

// randomFault draws a transient flip of one or two bits of the writable
// internal chain at a cycle of the window 200:8000: three times in four in
// r1–r7, the registers the controller rewrites (most of what converges),
// else anywhere in registers, pc, flags and both caches.
func randomFault(seed int64) (*faultmodel.Fault, trigger.Spec) {
	rng := rand.New(rand.NewSource(seed))
	cyc, _ := thor.ScanFieldByName("cpu.cycle")
	r1, _ := thor.ScanFieldByName("cpu.r1")
	bit := func() int {
		if rng.Intn(4) > 0 {
			return r1.Offset + rng.Intn(7*32)
		}
		return rng.Intn(cyc.Offset)
	}
	f := &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{bit()}}
	if rng.Intn(2) == 0 {
		f.Bits = append(f.Bits, bit())
	}
	return f, trigger.Spec{Kind: "cycle", Cycle: 200 + uint64(rng.Intn(7800))}
}

// runWithAndWithoutCut runs one experiment with no forward set and with
// set installed, and returns both.
func runWithAndWithoutCut(t *testing.T, tgt *Target, camp *campaign.Campaign, set *core.ForwardSet,
	seq int, fault *faultmodel.Fault, trig trigger.Spec) (cold, warm *core.Experiment) {
	t.Helper()
	tgt.SetForwardSet(nil)
	cold = runDirect(t, tgt, camp, seq, fault, trig)
	tgt.SetForwardSet(set)
	warm = runDirect(t, tgt, camp, seq, fault, trig)
	tgt.SetForwardSet(nil)
	if cold.Converged {
		t.Fatalf("seq %d: a run without a forward set converged", seq)
	}
	return cold, warm
}

// rejoinProperty: an experiment ended where it re-joined the reference
// logs the row emulating it to the end logs. It reports whether the cut
// was taken.
func rejoinProperty(t *testing.T, seed int64) bool {
	tgt, camp, set := rejoinFixture(t)
	fault, trig := randomFault(seed)
	cold, warm := runWithAndWithoutCut(t, tgt, camp, set, int(seed&0xffff), fault, trig)
	if c, w := recordJSON(t, cold), recordJSON(t, warm); !bytes.Equal(c, w) {
		t.Fatalf("seed %d (fault %v at %d, converged %v at %d): rows differ\nfull %s\ncut  %s",
			seed, fault.Bits, trig.Cycle, warm.Converged, warm.ConvergedAt, c, w)
	}
	return warm.Converged
}

// FuzzRejoinVsFull is the cut-off against full emulation on the PID loop:
// any transient flip of the writable chain at any cycle of the window
// gives the same row with the reference's join points installed as
// without them.
func FuzzRejoinVsFull(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { rejoinProperty(t, seed) })
}

// TestRejoinSeeds runs the fuzz property over 120 seeds, and requires the
// cut to have been taken on a quarter of them (62 are): a property no run
// reaches proves nothing.
func TestRejoinSeeds(t *testing.T) {
	cut := 0
	for seed := int64(0); seed < 120; seed++ {
		if rejoinProperty(t, 5000+seed) {
			cut++
		}
	}
	t.Logf("%d of 120 runs re-joined the reference", cut)
	if cut < 30 {
		t.Errorf("only %d of 120 runs re-joined the reference", cut)
	}
}

// TestRejoinRefusedAcrossTimeout: a run whose shifted end would reach the
// time-out is not cut — it could have timed out on the way, and with the
// time-out at its end it does not — and its row is the cold row either
// way; a cycle more and it is cut.
func TestRejoinRefusedAcrossTimeout(t *testing.T) {
	tgt, camp, set := rejoinFixture(t)
	var (
		warm  *core.Experiment
		fault *faultmodel.Fault
		trig  trigger.Spec
	)
	for seed := int64(0); warm == nil || !warm.Converged; seed++ {
		if seed == 200 {
			t.Fatal("no run of 200 re-joined the reference")
		}
		fault, trig = randomFault(7000 + seed)
		_, warm = runWithAndWithoutCut(t, tgt, camp, set, 1, fault, trig)
	}
	end, at := warm.Result.Outcome.Cycles, warm.ConvergedAt
	for _, timeout := range []uint64{(at + end) / 2, end, end + 1} {
		c := *camp
		c.Termination.TimeoutCycles = timeout
		cold, got := runWithAndWithoutCut(t, tgt, &c, set, 1, fault, trig)
		if timeout == end && cold.Result.Outcome.Status == campaign.OutcomeTimeout {
			t.Errorf("time-out %d: the run timed out, want it to end at its last iteration", timeout)
		}
		if want := timeout > end; got.Converged != want {
			t.Errorf("time-out %d, run ending at %d: cut %v, want %v", timeout, end, got.Converged, want)
		}
		if a, b := recordJSON(t, cold), recordJSON(t, got); !bytes.Equal(a, b) {
			t.Errorf("time-out %d: rows differ\ncold %s\nwarm %s", timeout, a, b)
		}
	}
}

// TestRejoinRecordWithinBudget: the rejoin record counts against the
// set's byte budget, its join points at most half of it. Under budgets
// that stop join-point recording early, or leave no room for the end
// state, the record is truncated or dropped, the checkpoints keep their
// half, and every row is still the cold row.
func TestRejoinRecordWithinBudget(t *testing.T) {
	camp := closedLoopCampaign("rejoin-budget", 300)
	for _, budget := range []int{8 << 10, 40 << 10, 120 << 10} {
		tgt := New(thorCfg())
		plan := &core.ForwardPlan{Campaign: camp.Name, MaxBytes: budget}
		for c := uint64(200); c < 8000; c += 200 {
			plan.Cycles = append(plan.Cycles, c)
		}
		tgt.ArmForwardRecording(plan)
		runDirect(t, tgt, camp, -1, nil, trigger.Spec{})
		set := tgt.TakeForwardSet()
		if set == nil {
			t.Fatalf("budget %d: nothing recorded", budget)
		}
		j, _ := set.Rejoin.(*rejoin)
		if j != nil && j.end == nil {
			t.Errorf("budget %d: a record of %d join points without the end state", budget, len(j.points))
		}
		cps := 0
		for _, cp := range set.Checkpoints {
			cps += cp.Bytes
		}
		if j != nil && cps+j.bytes > budget {
			t.Errorf("budget %d: checkpoints %d bytes and record %d", budget, cps, j.bytes)
		}
		cut := 0
		for seed := int64(0); seed < 30; seed++ {
			fault, trig := randomFault(9000 + seed)
			cold, warm := runWithAndWithoutCut(t, tgt, camp, set, int(seed), fault, trig)
			if a, b := recordJSON(t, cold), recordJSON(t, warm); !bytes.Equal(a, b) {
				t.Fatalf("budget %d, seed %d: rows differ\ncold %s\nwarm %s", budget, seed, a, b)
			}
			if warm.Converged {
				cut++
			}
		}
		points := 0
		if j != nil {
			points = len(j.points)
		}
		t.Logf("budget %d: %d checkpoints, %d join points, %d of 30 runs cut", budget, len(set.Checkpoints), points, cut)
		// The largest budget stops join points a tenth of the way through
		// the run, and what was recorded still cuts runs that re-join early.
		if budget == 120<<10 && (points == 0 || points > 100 || cut == 0) {
			t.Errorf("budget %d: %d join points, %d runs cut; want a truncated record that cuts", budget, points, cut)
		}
	}
}
