package shard_test

// A sharded submission's run options — retry policy, forwarding off —
// travel in the lease and reach the worker's runner, as the solo path
// applies them to the whole campaign.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"goofi/internal/core"
	"goofi/internal/scifi"
	"goofi/internal/shard"
	"goofi/internal/thor"
)

// flakyKind is the SCIFI target with a harness that garbles the first
// scan reads: while flakyReads is positive, a ReadScanChain counts it down
// and fails, transiently.
const flakyKind = "shard-test-flaky-scifi"

var flakyReads atomic.Int64

type flakyTarget struct{ *scifi.Target }

func (f flakyTarget) ReadScanChain(ex *core.Experiment) error {
	if flakyReads.Add(-1) >= 0 {
		return errors.New("flaky harness: scan read garbled")
	}
	return f.Target.ReadScanChain(ex)
}

func init() {
	info, _ := core.LookupTarget("scifi")
	info.Kind, info.Aliases = flakyKind, nil
	info.New = func(core.TargetConfig) (core.TargetSystem, error) {
		return flakyTarget{scifi.New(thor.DefaultConfig())}, nil
	}
	core.RegisterTarget(info)
}

// runWorkers drives coord to completion with two workers and returns the
// first error a worker ended with.
func runWorkers(t *testing.T, coord *shard.Coordinator) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	exits := make(chan error, 2)
	for _, name := range []string{"w0", "w1"} {
		w, err := shard.NewWorker(shard.WorkerConfig{
			Name: name, Transport: shard.Direct{C: coord},
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { exits <- w.Run(ctx) }()
	}
	var first error
	for i := 0; i < 2; i++ {
		if err := <-exits; err != nil && first == nil {
			first = err
			cancel() // the other worker would wait for a range nobody finishes
		}
	}
	return first
}

func TestShardLeaseCarriesRunOptions(t *testing.T) {
	const n = 200
	forwarded := counter("goofi_scheduler_experiments_forwarded_total")
	camp := conformanceCampaign("opts", n)
	solo := soloRun(t, camp)
	wantRecs, wantReport := recordBytes(t, solo, "opts"), reportText(t, solo, "opts")
	if counter("goofi_scheduler_experiments_forwarded_total") == forwarded {
		t.Fatal("the solo run forwarded nothing: the no-forward case below proves nothing")
	}

	t.Run("max-retries", func(t *testing.T) {
		// Abort-on-first-error, which a lease without the option means,
		// fails the range on the garbled read.
		flakyReads.Store(1)
		coord, _ := directCoordinator(t, camp, 2, 0, func(cfg *shard.CoordinatorConfig) {
			cfg.TargetKind = flakyKind
		})
		if err := runWorkers(t, coord); err == nil {
			t.Fatal("a garbled scan read did not fail a range that has no retry policy")
		}

		flakyReads.Store(1)
		retried := counter(`goofi_robust_retries_total{class="transient"}`)
		coord, st := directCoordinator(t, camp, 2, 0, func(cfg *shard.CoordinatorConfig) {
			cfg.TargetKind, cfg.MaxRetries = flakyKind, 2
		})
		if err := runWorkers(t, coord); err != nil {
			t.Fatalf("worker with maxRetries 2 in its lease: %v", err)
		}
		if d := counter(`goofi_robust_retries_total{class="transient"}`) - retried; d != 1 {
			t.Errorf("%v transient retries, want the 1 garbled read", d)
		}
		if err := coord.Close(); err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, st, "opts", wantRecs, wantReport)
	})

	t.Run("no-forward", func(t *testing.T) {
		coord, st := directCoordinator(t, camp, 2, 0, func(cfg *shard.CoordinatorConfig) {
			cfg.NoForward = true
		})
		forwarded := counter("goofi_scheduler_experiments_forwarded_total")
		if err := runWorkers(t, coord); err != nil {
			t.Fatal(err)
		}
		if d := counter("goofi_scheduler_experiments_forwarded_total") - forwarded; d != 0 {
			t.Errorf("a noForward lease forwarded %v experiments", d)
		}
		if err := coord.Close(); err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, st, "opts", wantRecs, wantReport)
	})
}
