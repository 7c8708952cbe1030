package server

// The sharded row source: instead of running a core.Runner itself, the
// daemon builds a shard.Coordinator over the tenant's store and lets
// workers — in-process goroutines by default, external `goofi shard-worker`
// processes on request — lease ranges and report rows through it; each
// worker runs its ranges through core.Assemble, the assembly startSolo
// uses, and the coordinator commits what they report through the sink a
// solo run logs through. The job around it is execute's, so a sharded job
// is indistinguishable from a solo one at the API, and its merged results
// are byte-identical (the shard conformance suite pins both).

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/shard"
	"goofi/internal/telemetry"
)

// mirrorEvery is how often a sharded job's merge progress is copied into
// its progress snapshot.
const mirrorEvery = 25 * time.Millisecond

func (s *Server) startSharded(ctx context.Context, j *job, st *campaign.Store, camp *campaign.Campaign,
	tsd *campaign.TargetSystemData, opts core.RunOptions, prog *telemetry.Progress) (*work, error) {
	spec := &j.spec
	name := camp.Name
	if !j.recover {
		// Fresh submission: same clean slate as a solo run's.
		if err := st.DeleteRun(name); err != nil {
			return nil, err
		}
	}
	coord, err := shard.NewCoordinator(shard.CoordinatorConfig{
		Store:          st,
		Campaign:       camp,
		Target:         tsd,
		RunOptions:     opts,
		Shards:         spec.Shards,
		HeartbeatEvery: s.cfg.ShardHeartbeat,
		LeaseTTL:       s.cfg.ShardLeaseTTL,
	})
	if err != nil {
		return nil, err
	}
	var workers []*shard.Worker
	if !spec.ExternalWorkers {
		for i := 0; i < spec.Shards; i++ {
			w, err := shard.NewWorker(shard.WorkerConfig{
				Name:      fmt.Sprintf("%s-w%d", spec.Tenant, i),
				Boards:    spec.Boards,
				Transport: shard.Direct{C: coord},
			})
			if err != nil {
				coord.Close()
				return nil, err
			}
			workers = append(workers, w)
		}
	}
	prog.Start(name, camp.NumExperiments)
	prog.SetPhase("sharded")
	// Surface the worker fleet (registration, leases, heartbeat age) in
	// /progress snapshots for as long as the coordinator lives.
	prog.SetWorkersFn(coord.Fleet)
	merged, _ := coord.Progress()
	prog.AddDone(merged)
	j.mu.Lock()
	j.coord = coord
	j.mu.Unlock()

	wctx, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	workerErrs := make([]error, len(workers))
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(wctx); err != nil && wctx.Err() == nil {
				workerErrs[i] = err
			}
		}()
	}
	workersDead := make(chan struct{})
	if len(workers) > 0 {
		go func() {
			wg.Wait()
			close(workersDead)
		}()
	}

	wait := func() (*core.Summary, bool, error) {
		last := merged
		mirror := func() {
			now, _ := coord.Progress()
			prog.Done(now - last)
			last = now
		}
		t := time.NewTicker(mirrorEvery)
		defer t.Stop()
		exhausted := false
		for running := true; running; {
			select {
			case <-t.C:
				mirror()
				// A failed merge write ends the job as a failed write ends a
				// solo run: at once, not when the workers run out of plan.
				running = coord.Err() == nil
			case <-coord.Done():
				running = false
			case <-wctx.Done():
				running = false
			case <-workersDead:
				// Every in-process worker exited without finishing the
				// plan, and not because it was told to: nothing is left to
				// drive the campaign.
				exhausted = wctx.Err() == nil
				running = false
			}
		}
		stop()
		wg.Wait()
		// A poisoned merge comes back from Close like any failed flush.
		err := coord.Close()
		mirror()
		// Like a resumed solo run, the summary covers only what this
		// execution merged, not what recovery found already durable.
		sum := &core.Summary{Campaign: name, Experiments: last - merged}
		complete := coord.Complete()
		if err == nil && !complete {
			if werr := errors.Join(workerErrs...); werr != nil {
				err = fmt.Errorf("shard workers failed: %w", werr)
			} else if exhausted {
				err = errors.New("shard workers exhausted before the plan completed")
			}
		}
		switch {
		case err != nil:
			prog.SetPhase(telemetry.PhaseFailed)
		case complete:
			prog.SetPhase(telemetry.PhaseDone)
		default:
			prog.SetPhase(telemetry.PhaseStopped)
		}
		return sum, complete, err
	}
	return &work{stop: stop, wait: wait}, nil
}
