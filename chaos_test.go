// A persistently broken board is fenced off while the surviving boards
// complete the plan. TestConformance's target-chaos and corrupt cells are
// the retry layer's differential and its negative control.
package goofi_test

import (
	"context"
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

func healthyFactory() core.TargetSystem { return scifi.New(thor.DefaultConfig()) }

// runBoards runs a SCIFI campaign through core.NewRunner on boards factory
// builds: for the tests whose boards watch or break the run, which no
// registered kind does. The error is the run's or the analysis', whichever
// came first.
func runBoards(t *testing.T, camp *campaign.Campaign, boards int, factory func() core.TargetSystem,
	opts ...core.RunnerOption) (outcome, error) {
	t.Helper()
	out := outcome{st: (&spec{}).store(t, camp)}
	sink := campaign.NewBatchingSink(out.st, 0)
	r, err := core.NewRunner(nil, core.SCIFI, camp, scifi.TargetSystemData(camp.TargetName),
		append([]core.RunnerOption{core.WithBoards(boards, factory), core.WithSink(sink)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	out.sum, err = r.Run(context.Background())
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return out, err
	}
	out.rows = storedRows(t, out.st, camp.Name)
	rep, err := analysis.AnalyzeAndStore(out.st, camp.Name)
	if err == nil {
		out.report = rep.Render()
	}
	return out, err
}

// gatedTarget delays each board's first experiment at InitTestCard until
// every board has started one, so the fast queue provably hands work to
// the broken board. A chaos wrapper, fault-free on a healthy board, forwards
// checkpoints like the target it wraps.
type gatedTarget struct {
	*chaos.Target
	once    sync.Once
	started *int32
	n       int32
	gate    chan struct{}
}

func (g *gatedTarget) InitTestCard(ex *core.Experiment) error {
	if ex.Seq < 0 {
		return g.Target.InitTestCard(ex) // the reference runs before the workers exist
	}
	g.once.Do(func() {
		if atomic.AddInt32(g.started, 1) == g.n {
			close(g.gate)
		}
		<-g.gate
	})
	return g.Target.InitTestCard(ex)
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

	healthy, err := runBoards(t, mkCamp(), 1, healthyFactory)
	if err != nil {
		t.Fatal(err)
	}

	var calls, started int32
	gate := make(chan struct{})
	factory := func() core.TargetSystem {
		// Call 1 is the reference board, which the first worker then takes.
		var cfg chaos.Config
		if atomic.AddInt32(&calls, 1) == 3 {
			cfg = chaos.Config{Seed: 5, ScanReadCorruption: 1}
		}
		return &gatedTarget{Target: chaos.Wrap(healthyFactory(), cfg), started: &started, n: 3, gate: gate}
	}
	got, err := runBoards(t, mkCamp(), 3, factory,
		core.WithRetryPolicy(core.RetryPolicy{
			MaxRetries:            3,
			BoardFailureThreshold: 2,
			BackoffBase:           time.Microsecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	sum := got.sum
	if emulated := sum.Experiments - sum.Pruned.Total(); sum.Pruned.Total() == 0 || emulated < 3 {
		t.Errorf("%d pruned, %d emulated: want both pruning and a board each", sum.Pruned.Total(), emulated)
	}
	if sum.QuarantinedBoards != 1 {
		t.Errorf("quarantined boards = %d, want 1", sum.QuarantinedBoards)
	}
	if sum.InvalidRuns != 0 {
		t.Errorf("invalid runs = %d, want 0 (failures were the board's fault)", sum.InvalidRuns)
	}
	sameOutcome(t, healthy, got)
}
