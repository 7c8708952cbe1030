package scifi

import (
	"bytes"
	"reflect"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/envsim"
	"goofi/internal/faultmodel"
	"goofi/internal/thor"
	"goofi/internal/trigger"
)

// steadyFixture is the pid-long loop — 1,000 iterations against the
// first-order plant — its reference run recorded with checkpoints every
// 200 cycles to 8,000, and injections planned up to horizon. It returns
// the reference run too.
func steadyFixture(t *testing.T, camp *campaign.Campaign, horizon uint64) (*Target, *core.ForwardSet, *core.Experiment) {
	t.Helper()
	tgt := New(thorCfg())
	plan := &core.ForwardPlan{Campaign: camp.Name, MaxBytes: core.DefaultMaxForwardBytes, Horizon: horizon}
	for c := uint64(200); c < 8000; c += 200 {
		plan.Cycles = append(plan.Cycles, c)
	}
	tgt.ArmForwardRecording(plan)
	ref := runDirect(t, tgt, camp, -1, nil, trigger.Spec{})
	set := tgt.TakeForwardSet()
	if set == nil || set.DefUse == nil {
		t.Fatal("the reference run recorded no forward set")
	}
	set.Reference = &ref.Result
	return tgt, set, ref
}

// steadyProperty: an experiment skipped from its steady state to its last
// iteration logs the row emulating every iteration logs. It reports
// whether the skip was taken.
func steadyProperty(t *testing.T, seed int64) bool {
	camp := closedLoopCampaign("steady", 1000)
	tgt, set, _ := steadyFixture(t, camp, 8000)
	fault, trig := randomFault(seed)
	cold, warm := runWithAndWithoutCut(t, tgt, camp, set, int(seed&0xffff), fault, trig)
	if cold.SteadyCycles != 0 {
		t.Fatalf("seed %d: a run without a forward set skipped %d cycles", seed, cold.SteadyCycles)
	}
	if c, w := recordJSON(t, cold), recordJSON(t, warm); !bytes.Equal(c, w) {
		t.Fatalf("seed %d (fault %v at %d, skipped %d cycles at %d, converged %v): rows differ\nfull %s\nskip %s",
			seed, fault.Bits, trig.Cycle, warm.SteadyCycles, warm.SteadyAt, warm.Converged, c, w)
	}
	return warm.SteadyCycles > 0
}

// FuzzSteadyVsFull is the steady-state skip against full emulation on the
// PID loop: any transient flip of the writable chain at any cycle of the
// window gives the same row with a forward set installed — join points,
// and the skip it arms — as without one.
func FuzzSteadyVsFull(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { steadyProperty(t, seed) })
}

// TestSteadySeeds runs the fuzz property over 80 seeds and requires a fifth
// of the runs to have skipped (33 do): most of the others are flushed out
// and end re-joining the reference — two of them only past the reference's
// own skip.
func TestSteadySeeds(t *testing.T) {
	skipped := 0
	for seed := int64(0); seed < 80; seed++ {
		if steadyProperty(t, 3000+seed) {
			skipped++
		}
	}
	t.Logf("%d of 80 runs skipped a steady state", skipped)
	if skipped < 16 {
		t.Errorf("only %d of 80 runs skipped a steady state", skipped)
	}
	// Runs back in the reference's state only at an iteration past the
	// reference's own skip: they find their join point in its skipped
	// stretch, and end there with the fully emulated row.
	camp := closedLoopCampaign("steady", 1000)
	tgt, set, ref := steadyFixture(t, camp, 8000)
	for _, seed := range []int64{127, 317} {
		fault, trig := randomFault(seed)
		cold, warm := runWithAndWithoutCut(t, tgt, camp, set, int(seed), fault, trig)
		if !warm.Converged || warm.ConvergedAt <= ref.SteadyAt {
			t.Errorf("seed %d: converged %v at cycle %d; want a re-join past the reference's skip at %d",
				seed, warm.Converged, warm.ConvergedAt, ref.SteadyAt)
		}
		if c, w := recordJSON(t, cold), recordJSON(t, warm); !bytes.Equal(c, w) {
			t.Errorf("seed %d: rows differ\nfull %s\ncut  %s", seed, c, w)
		}
	}
}

// TestSteadyReferenceKeepsItsTables: a reference run skips its steady state
// only past the campaign's last injection point, and what it records
// answers as the full run's record does — the def-use table up to there at
// every boundary for every bit of the chain, the join point of every
// iteration, and the end they lead to. Its row is the full run's.
func TestSteadyReferenceKeepsItsTables(t *testing.T) {
	for _, tc := range []struct{ horizon, timeout uint64 }{
		{8000, 4_000_000}, {30_000, 4_000_000},
		// A time-out just past the run's end stops the skip a few
		// iterations short of it: the boundaries after the skip record
		// their join points after the skipped stretch.
		{8000, 55_100},
	} {
		camp := closedLoopCampaign("steady-ref", 1000)
		camp.Termination.TimeoutCycles = tc.timeout
		horizon := tc.horizon
		_, full, fullRef := steadyFixture(t, camp, 1<<40)
		if fullRef.SteadyCycles != 0 {
			t.Fatalf("a reference with injections planned past its end skipped at cycle %d", fullRef.SteadyAt)
		}
		_, set, ref := steadyFixture(t, camp, horizon)
		if ref.SteadyCycles == 0 || ref.SteadyAt <= horizon {
			t.Fatalf("horizon %d: the reference skipped %d cycles at cycle %d, want a skip past the horizon",
				horizon, ref.SteadyCycles, ref.SteadyAt)
		}
		if a, b := recordJSON(t, fullRef), recordJSON(t, ref); !bytes.Equal(a, b) {
			t.Fatalf("horizon %d: reference rows differ\nfull %s\nskip %s", horizon, a, b)
		}
		// Every boundary up to the horizon, and every bit of the chain at
		// every eighth of them. Past the skip the table has no boundary:
		// an injection there would run.
		n := 0
		for at := uint64(0); at <= horizon; at++ {
			fi, fc, fok := full.DefUse.InjectionPoint(at, false)
			si, sc, sok := set.DefUse.InjectionPoint(at, false)
			if fi != si || fc != sc || fok != sok || !fok {
				t.Fatalf("horizon %d: injection point of cycle %d: (%d, %d, %v), full run (%d, %d, %v)",
					horizon, at, si, sc, sok, fi, fc, fok)
			}
			if at != fc || fi%8 != 0 {
				continue
			}
			for bit := 0; bit < thor.ScanLen(); bit++ {
				if a, b := full.DefUse.NextAccess(bit, fi), set.DefUse.NextAccess(bit, si); a != b {
					t.Fatalf("horizon %d, boundary %d (cycle %d), bit %d: next access %v, full run %v",
						horizon, si, sc, bit, b, a)
				}
			}
			n++
		}
		if _, _, ok := set.DefUse.InjectionPoint(ref.SteadyAt+1, false); ok {
			t.Errorf("horizon %d: the table has boundaries past the skip at %d", horizon, ref.SteadyAt)
		}
		// Every iteration the full run has a join point for, the skipping
		// run has one too, recorded or synthesized in its skipped stretch:
		// the same state, counters included.
		fj, sj := full.Rejoin.(*rejoin), set.Rejoin.(*rejoin)
		if sj.first != fj.first || len(sj.points)+sj.steady.m != len(fj.points) ||
			sj.iteration != fj.iteration || sj.status != fj.status ||
			!bytes.Equal(u32Bytes(sj.outputs), u32Bytes(fj.outputs)) {
			t.Errorf("horizon %d: rejoin record from %d, %d points, end at iteration %d (%v); full run's from %d, %d points, %d (%v)",
				horizon, sj.first, len(sj.points)+sj.steady.m, sj.iteration, sj.status, fj.first, len(fj.points), fj.iteration, fj.status)
		}
		c := thor.New(thorCfg())
		for k := range fj.points {
			f, _ := fj.point(k)
			s, ok := sj.point(k)
			if !ok || !sameJoinPoint(c, f, s) {
				t.Fatalf("horizon %d: join point %d (iteration %d, stretch %+v) is not the full run's",
					horizon, k, fj.first+k, sj.steady)
			}
		}
		if sj.steady.m == 0 {
			t.Errorf("horizon %d: the reference's skip left no stretch in its join record", horizon)
		}
		if d, ok := fullRefEnd(fj).Rejoins(sj.end); !ok || d != (thor.Shift{}) {
			t.Errorf("horizon %d: the recorded end state is not the full run's", horizon)
		}
		t.Logf("%+v: reference skipped %d cycles at %d; %d boundaries compared bit by bit, %d join points recorded and %d synthesized (full %d)",
			tc, ref.SteadyCycles, ref.SteadyAt, n, len(sj.points), sj.steady.m, len(fj.points))
	}
}

// sameJoinPoint reports whether two join points hold the same board
// state, counters included, the same output and event counts and the same
// simulator state. It restores a onto c.
func sameJoinPoint(c *thor.CPU, a, b joinPoint) bool {
	if err := c.Restore(a.cpu); err != nil {
		panic(err)
	}
	c.Advance(a.shift)
	d, ok := c.Rejoins(b.cpu)
	return ok && d == b.shift && a.outputs == b.outputs && a.events == b.events &&
		reflect.DeepEqual(a.simState, b.simState)
}

// fullRefEnd is a CPU in the full run's recorded end state.
func fullRefEnd(j *rejoin) *thor.CPU {
	c := thor.New(thorCfg())
	if err := c.Restore(j.end); err != nil {
		panic(err)
	}
	return c
}

func u32Bytes(v []uint32) []byte {
	b := make([]byte, 0, 4*len(v))
	for _, x := range v {
		b = append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return b
}

// TestSteadySkipBounds: a run skips whole iterations, to the boundary
// before its last one and no further — two to three iterations short of a
// time-out, which is how a loop without an iteration limit still ends on
// its time-out — and its row is the cold row, wherever the time-out falls.
// The fault is in a register the controller never uses: the run never
// re-joins the reference, and settles with it.
func TestSteadySkipBounds(t *testing.T) {
	r9, _ := thor.ScanFieldByName("cpu.r9")
	fault := &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{r9.Offset + 3}}
	trig := trigger.Spec{Kind: "cycle", Cycle: 1500}
	var period, skipAt uint64
	for _, tc := range []struct {
		iterations int
		timeout    uint64
	}{
		{1000, 4_000_000}, {1000, 55_100}, {0, 30_000}, {0, 30_001}, {0, 30_027}, {0, 52_000}, {0, 52_055},
	} {
		camp := closedLoopCampaign("steady-bounds", tc.iterations)
		camp.Termination.TimeoutCycles = tc.timeout
		tgt, set, _ := steadyFixture(t, camp, 8000)
		cold, warm := runWithAndWithoutCut(t, tgt, camp, set, 1, fault, trig)
		out := warm.Result.Outcome
		left := out.Cycles - warm.SteadyAt - warm.SteadyCycles
		if period == 0 {
			period = left // the last iteration, emulated
		}
		want := campaign.OutcomeCompleted
		if tc.iterations == 0 {
			want = campaign.OutcomeTimeout
		}
		switch {
		case warm.SteadyCycles == 0 || out.Status != want:
			t.Errorf("%+v: skipped %d cycles, ended %v; want a skip and %v", tc, warm.SteadyCycles, out.Status, want)
		case warm.SteadyCycles%period != 0:
			t.Errorf("%+v: skipped %d cycles, not whole %d-cycle iterations", tc, warm.SteadyCycles, period)
		case want == campaign.OutcomeCompleted && tc.timeout > out.Cycles+3*period && left != period:
			t.Errorf("%+v: %d cycles emulated after the skip, want the last %d-cycle iteration", tc, left, period)
		case want == campaign.OutcomeCompleted && left > 3*period:
			t.Errorf("%+v: %d cycles emulated after the skip, want at most three %d-cycle iterations", tc, left, period)
		case want == campaign.OutcomeTimeout && (left < 2*period || left >= 3*period):
			t.Errorf("%+v: %d cycles emulated after the skip, want two to three %d-cycle iterations", tc, left, period)
		}
		if a, b := recordJSON(t, cold), recordJSON(t, warm); !bytes.Equal(a, b) {
			t.Errorf("%+v: rows differ\ncold %s\nskip %s", tc, a, b)
		}
		if skipAt == 0 {
			skipAt = warm.SteadyAt
		}
	}
	// Time-outs about the boundary where the skip is decided: one cycle
	// short of it, the iteration's last instruction takes the run past
	// the time-out there, and nothing may be skipped from beyond it.
	for _, timeout := range []uint64{skipAt - period, skipAt - 1, skipAt, skipAt + 1, skipAt + 2*period} {
		camp := closedLoopCampaign("steady-bounds", 0)
		camp.Termination.TimeoutCycles = timeout
		tgt, set, _ := steadyFixture(t, camp, 8000)
		cold, warm := runWithAndWithoutCut(t, tgt, camp, set, 1, fault, trig)
		if a, b := recordJSON(t, cold), recordJSON(t, warm); !bytes.Equal(a, b) {
			t.Errorf("time-out %d, skip decided at %d: rows differ\ncold %s\nskip %s", timeout, skipAt, a, b)
		}
	}
}

// creepingPlant holds its sensor at the set point, so the controller's
// registers and memory repeat from the first iterations on, while a hidden
// count moves at every exchange: its state never repeats. It counts its
// snapshots.
type creepingPlant struct {
	steps     uint64
	buf       [2]uint32
	snapshots *int
}

func (p *creepingPlant) Name() string                    { return "creeping-plant" }
func (p *creepingPlant) Reset(params map[string]float64) { p.steps = 0 }
func (p *creepingPlant) Exchange(outputs []uint32) []uint32 {
	p.steps++
	sp := uint32(100 * 256)
	p.buf = [2]uint32{sp, sp}
	return p.buf[:]
}
func (p *creepingPlant) SnapshotState() any {
	*p.snapshots++
	return p.steps
}
func (p *creepingPlant) RestoreState(state any) error { p.steps = state.(uint64); return nil }
func (p *creepingPlant) EqualState(state any) bool {
	s, ok := state.(uint64)
	return ok && s == p.steps
}
func (p *creepingPlant) SnapshotStateInto(any) bool { return false } // every snapshot counts

// rampPlant is the first-order plant whose set point climbs every
// iteration: no two iterations are alike, and the test at every boundary
// fails at once.
type rampPlant struct {
	envsim.FirstOrderPlant
	step uint32
}

func (p *rampPlant) Exchange(outputs []uint32) []uint32 {
	ins := p.FirstOrderPlant.Exchange(outputs)
	p.step++
	ins[1] += p.step
	return ins
}
func (p *rampPlant) SnapshotState() any { return [2]any{p.FirstOrderPlant.SnapshotState(), p.step} }
func (p *rampPlant) RestoreState(state any) error {
	s := state.([2]any)
	p.step = s[1].(uint32)
	return p.FirstOrderPlant.RestoreState(s[0])
}
func (p *rampPlant) EqualState(state any) bool {
	s, ok := state.([2]any)
	return ok && s[1] == p.step && p.FirstOrderPlant.EqualState(s[0])
}

// TestSteadyAttemptsBounded: the test at a boundary costs nothing, and a
// state that keeps failing the full comparison costs a bounded number of
// snapshots. A loop whose registers repeat while its simulator creeps on
// is snapshotted a few times plus once per steadyMaxGap iterations and
// never skipped; a loop that never repeats allocates no more at 1,000
// iterations than at 100, beyond slice growth. Both log the cold rows.
func TestSteadyAttemptsBounded(t *testing.T) {
	r9, _ := thor.ScanFieldByName("cpu.r9") // a register the controller never uses
	fault := &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{r9.Offset + 3}}
	trig := trigger.Spec{Kind: "cycle", Cycle: 300}
	snapshots := 0
	reg := envsim.NewRegistry()
	reg.Register("creeping-plant", func() envsim.Simulator { return &creepingPlant{snapshots: &snapshots} })
	reg.Register("ramp-plant", func() envsim.Simulator { return &rampPlant{} })

	const iterations = 1000
	camp := closedLoopCampaign("steady-creep", iterations)
	camp.EnvSim = &campaign.EnvSimSpec{Name: "creeping-plant"}
	tgt := New(thorCfg(), WithEnvRegistry(reg))
	set := &core.ForwardSet{Campaign: camp.Name}
	cold, warm := runWithAndWithoutCut(t, tgt, camp, set, 1, fault, trig)
	snapshots = 0
	tgt.SetForwardSet(set)
	runDirect(t, tgt, camp, 1, fault, trig)
	tgt.SetForwardSet(nil)
	if bound := 2 + 5 + iterations/steadyMaxGap; snapshots == 0 || snapshots > bound {
		t.Errorf("%d snapshots of a creeping simulator over %d iterations, want 1 to %d", snapshots, iterations, bound)
	}
	if warm.SteadyCycles != 0 {
		t.Errorf("a run whose simulator never repeats skipped %d cycles", warm.SteadyCycles)
	}
	if a, b := recordJSON(t, cold), recordJSON(t, warm); !bytes.Equal(a, b) {
		t.Errorf("creeping plant: rows differ\ncold %s\nwarm %s", a, b)
	}
	t.Logf("creeping plant: %d snapshots over %d iterations", snapshots, iterations)

	allocs := func(iterations int) float64 {
		camp := closedLoopCampaign("steady-ramp", iterations)
		camp.EnvSim = &campaign.EnvSimSpec{Name: "ramp-plant"}
		tgt.SetForwardSet(&core.ForwardSet{Campaign: camp.Name})
		defer tgt.SetForwardSet(nil)
		run := func() {
			if ex := runDirect(t, tgt, camp, 0, fault, trig); ex.Result.Outcome.Iterations != iterations {
				t.Fatalf("outcome %+v, want %d iterations", ex.Result.Outcome, iterations)
			}
		}
		run()
		return testing.AllocsPerRun(5, run)
	}
	short, long := allocs(100), allocs(1000)
	t.Logf("allocations per armed experiment: %v at 100 iterations, %v at 1,000", short, long)
	if long-short > 12 {
		t.Errorf("900 more armed iterations cost %v more allocations (%v → %v), want slice-growth steps only",
			long-short, short, long)
	}
}

// assertingLoopSource takes a recovered assertion every iteration: the
// handler logs an event and returns to the loop, which otherwise only
// echoes its sensor input.
const assertingLoopSource = `
loop:
	kick
	in r1, 0
	in r2, 0
	trap 1
back:
	out 1, r1
	trap 2
	bra loop
recover:
	bra back
`

// TestSteadyNotAcrossEvents: an iteration that logs a detection event is
// not skipped, though the board repeats its state at every boundary — a
// skip would have to log the event once per skipped iteration, and the
// row counts every recovered one.
func TestSteadyNotAcrossEvents(t *testing.T) {
	camp := closedLoopCampaign("steady-events", 200)
	camp.Workload.Name, camp.Workload.Source = "asserting-loop", assertingLoopSource
	camp.Workload.RecoveryHandlers = map[uint16]string{1: "recover"}
	camp.Workload.ResultSymbols = nil
	tgt, set, ref := steadyFixture(t, camp, 300)
	if ref.SteadyCycles != 0 || ref.Result.Outcome.Recovered != 200 {
		t.Fatalf("reference: skipped %d cycles, %d recovered assertions; want no skip and 200",
			ref.SteadyCycles, ref.Result.Outcome.Recovered)
	}
	r9, _ := thor.ScanFieldByName("cpu.r9")
	fault := &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{r9.Offset}}
	cold, warm := runWithAndWithoutCut(t, tgt, camp, set, 1, fault, trigger.Spec{Kind: "cycle", Cycle: 500})
	if warm.SteadyCycles != 0 {
		t.Errorf("a run logging an event every iteration skipped %d cycles", warm.SteadyCycles)
	}
	if a, b := recordJSON(t, cold), recordJSON(t, warm); !bytes.Equal(a, b) {
		t.Errorf("rows differ\ncold %s\nwarm %s", a, b)
	}
}
