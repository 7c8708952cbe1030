// Differential regression tests for the fault-tolerance layer: a
// campaign run against a chaos-wrapped (deterministically flaky) harness
// must, after retries, log byte-identical LoggedSystemState records and
// an identical analysis report to a healthy run — retry recovery may
// cost attempts, never change results. A silently-corrupting run is the
// negative control proving the comparison can see real corruption, and
// the quarantine test shows a persistently broken board being fenced off
// while the surviving boards complete the plan.
package goofi_test

import (
	"encoding/json"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/chaos"
	"goofi/internal/core"
	"goofi/internal/scifi"
	"goofi/internal/thor"
)

// chaosRun executes camp on a fresh store against factory-built boards,
// returning the summary, analysis report, and JSON record rows.
func chaosRun(t *testing.T, camp *campaign.Campaign, boards int,
	factory func() core.TargetSystem, opts ...core.RunnerOption) (*core.Summary, *analysis.Report, []string) {
	t.Helper()
	st, tsd := benchStore(t)
	opts = append(opts, core.WithBoards(boards, factory))
	sum, rep := runCampaign(t, st, tsd, nil, core.SCIFI, camp, opts...)
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
	return sum, rep, rows
}

func healthyFactory() core.TargetSystem { return scifi.New(thor.DefaultConfig()) }

// TestChaosDifferential: seeded transient harness faults — detected scan
// corruption on every fired read — are fully absorbed by the retry
// layer: the flaky campaign converges to the healthy campaign's exact
// records and report, with the retries visible only in the summary.
func TestChaosDifferential(t *testing.T) {
	mkCamp := func() *campaign.Campaign { return sortCampaign("chaos-diff", 9, 31, []string{"cpu"}) }

	healthySum, healthyRep, healthyRows := chaosRun(t, mkCamp(), 1, healthyFactory)

	cfg := chaos.Config{Seed: 99, ScanReadCorruption: 0.4, MaxFaults: 5}
	flakySum, flakyRep, flakyRows := chaosRun(t, mkCamp(), 1,
		func() core.TargetSystem { return chaos.Wrap(healthyFactory(), cfg) },
		core.WithRetryPolicy(core.RetryPolicy{MaxRetries: 7, BackoffBase: time.Microsecond}))

	if flakySum.Retried == 0 {
		t.Error("chaos run retried nothing — the fault model never fired")
	}
	if flakySum.InvalidRuns != 0 {
		t.Errorf("chaos run recorded %d invalid runs, want 0 (faults are transient)", flakySum.InvalidRuns)
	}
	if flakySum.Experiments != healthySum.Experiments {
		t.Errorf("experiments: chaos %d, healthy %d", flakySum.Experiments, healthySum.Experiments)
	}
	if len(healthyRows) != len(flakyRows) {
		t.Fatalf("record counts differ: healthy %d, chaos %d", len(healthyRows), len(flakyRows))
	}
	for i := range healthyRows {
		if healthyRows[i] != flakyRows[i] {
			t.Errorf("record %d differs\nhealthy %s\nchaos   %s", i, healthyRows[i], flakyRows[i])
		}
	}
	if !reflect.DeepEqual(healthyRep, flakyRep) {
		t.Errorf("analysis reports differ\nhealthy %+v\nchaos   %+v", healthyRep, flakyRep)
	}
	t.Logf("chaos run: %d retries absorbed, records byte-identical", flakySum.Retried)
}

// TestChaosSilentCorruptionDetected is the self-test of the differential
// comparison: with Silent set the chaos harness corrupts scan captures
// WITHOUT reporting an error, so nothing is retried and the corruption
// must show up as differing records. If this test ever finds identical
// records, the differential test above has lost its teeth.
func TestChaosSilentCorruptionDetected(t *testing.T) {
	mkCamp := func() *campaign.Campaign { return sortCampaign("chaos-silent", 9, 31, []string{"cpu"}) }

	_, _, healthyRows := chaosRun(t, mkCamp(), 1, healthyFactory)

	cfg := chaos.Config{Seed: 7, ScanReadCorruption: 1, Silent: true}
	silentSum, _, silentRows := chaosRun(t, mkCamp(), 1,
		func() core.TargetSystem { return chaos.Wrap(healthyFactory(), cfg) })

	if silentSum.Retried != 0 {
		t.Errorf("silent corruption triggered %d retries — it was not silent", silentSum.Retried)
	}
	if len(healthyRows) != len(silentRows) {
		return // already a detected difference
	}
	for i := range healthyRows {
		if healthyRows[i] != silentRows[i] {
			return // corruption detected, comparison works
		}
	}
	t.Error("silently corrupted campaign logged records byte-identical to a healthy one")
}

// gatedTarget delays each board's first experiment at InitTestCard until
// every board has started one, so the fast queue provably hands work to
// the broken board. It forwards checkpoints like the target it wraps.
type gatedTarget struct {
	core.TargetSystem
	once    sync.Once
	started *int32
	n       int32
	gate    chan struct{}
}

func (g *gatedTarget) InitTestCard(ex *core.Experiment) error {
	if ex.Seq < 0 {
		return g.TargetSystem.InitTestCard(ex) // the reference runs before the workers exist
	}
	g.once.Do(func() {
		if atomic.AddInt32(g.started, 1) == g.n {
			close(g.gate)
		}
		<-g.gate
	})
	return g.TargetSystem.InitTestCard(ex)
}

func (g *gatedTarget) ArmForwardRecording(plan *core.ForwardPlan) {
	if fw, ok := g.TargetSystem.(core.Forwarder); ok {
		fw.ArmForwardRecording(plan)
	}
}

func (g *gatedTarget) TakeForwardSet() *core.ForwardSet {
	if fw, ok := g.TargetSystem.(core.Forwarder); ok {
		return fw.TakeForwardSet()
	}
	return nil
}

func (g *gatedTarget) SetForwardSet(set *core.ForwardSet) {
	if fw, ok := g.TargetSystem.(core.Forwarder); ok {
		fw.SetForwardSet(set)
	}
}

// TestChaosQuarantine: one of three boards is persistently broken —
// every scan read fails. The circuit breaker quarantines it and the two
// healthy boards complete the campaign with records identical to a
// healthy single-board run.
func TestChaosQuarantine(t *testing.T) {
	// Forwarding and pruning stay on, as in any default run, and pruned
	// experiments never reach a board: the campaign is large enough (4 of
	// its 24 experiments are emulated) that each of the three boards still
	// gets one — the gate below waits for that — the broken one included.
	mkCamp := func() *campaign.Campaign { return sortCampaign("chaos-quar", 24, 31, []string{"cpu"}) }

	_, healthyRep, healthyRows := chaosRun(t, mkCamp(), 1, healthyFactory)

	var calls, started int32
	gate := make(chan struct{})
	factory := func() core.TargetSystem {
		// Call 1 is the reference board, which the first worker then takes.
		n := atomic.AddInt32(&calls, 1)
		inner := healthyFactory()
		var tgt core.TargetSystem = inner
		if n == 3 {
			tgt = chaos.Wrap(inner, chaos.Config{Seed: 5, ScanReadCorruption: 1})
		}
		return &gatedTarget{TargetSystem: tgt, started: &started, n: 3, gate: gate}
	}
	sum, rep, rows := chaosRun(t, mkCamp(), 3, factory,
		core.WithRetryPolicy(core.RetryPolicy{
			MaxRetries:            3,
			BoardFailureThreshold: 2,
			BackoffBase:           time.Microsecond,
		}))

	if emulated := sum.Experiments - sum.Pruned.Total(); sum.Pruned.Total() == 0 || emulated < 3 {
		t.Errorf("%d pruned, %d emulated: want both pruning and a board each", sum.Pruned.Total(), emulated)
	}
	if sum.QuarantinedBoards != 1 {
		t.Errorf("quarantined boards = %d, want 1", sum.QuarantinedBoards)
	}
	if sum.InvalidRuns != 0 {
		t.Errorf("invalid runs = %d, want 0 (failures were the board's fault)", sum.InvalidRuns)
	}
	if len(rows) != len(healthyRows) {
		t.Fatalf("record counts differ: quarantine run %d, healthy %d", len(rows), len(healthyRows))
	}
	for i := range healthyRows {
		if rows[i] != healthyRows[i] {
			t.Errorf("record %d differs\nhealthy    %s\nquarantine %s", i, healthyRows[i], rows[i])
		}
	}
	if !reflect.DeepEqual(healthyRep, rep) {
		t.Errorf("analysis reports differ\nhealthy    %+v\nquarantine %+v", healthyRep, rep)
	}
}
