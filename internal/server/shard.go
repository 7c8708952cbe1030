package server

// The sharded execution path: instead of running a core.Runner itself,
// the daemon builds a shard.Coordinator over the tenant's store and lets
// workers — in-process goroutines by default, external `goofi
// shard-worker` processes on request — lease ranges and report records
// through it; each worker runs its ranges through core.Assemble, the
// assembly execute() uses. State transitions follow execute()'s, so a
// sharded job is indistinguishable from a solo one at the API, and its
// merged results are byte-identical (the shard conformance suite pins
// both).

import (
	"context"
	"fmt"
	"sync"
	"time"

	"goofi/internal/core"
	"goofi/internal/shard"
	"goofi/internal/telemetry"
)

func (s *Server) executeSharded(ctx context.Context, j *job) {
	spec := &j.spec
	name := spec.Campaign.Name
	fail := func(err error) {
		j.setState(StateFailed, err.Error())
		s.markDurable(name, spec.Tenant, StateFailed)
	}
	st, db, release, err := s.tenants.Acquire(spec.Tenant)
	if err != nil {
		fail(err)
		return
	}
	defer release()
	camp, err := st.GetCampaign(name)
	if err != nil {
		fail(err)
		return
	}
	tsd, err := st.GetTargetSystem(camp.TargetName)
	if err != nil {
		fail(err)
		return
	}
	if !j.recover {
		// Fresh submission: same clean slate as execute().
		if err := st.DeleteRun(name); err != nil {
			fail(err)
			return
		}
	}
	coord, err := shard.NewCoordinator(shard.CoordinatorConfig{
		Store:                 st,
		Campaign:              camp,
		Target:                tsd,
		Technique:             spec.Technique,
		TargetKind:            spec.TargetKind,
		TargetParams:          spec.targetConfig().Params,
		Shards:                spec.Shards,
		NoForward:             spec.NoForward,
		MaxRetries:            spec.MaxRetries,
		BoardFailureThreshold: spec.BoardFailureThreshold,
		HeartbeatEvery:        s.cfg.ShardHeartbeat,
		LeaseTTL:              s.cfg.ShardLeaseTTL,
	})
	if err != nil {
		fail(err)
		return
	}
	prog := telemetry.NewProgress(s.fleet.Capacity())
	prog.Start(name, camp.NumExperiments)
	prog.SetPhase("sharded")
	// Surface the worker fleet (registration, leases, heartbeat age) in
	// /progress snapshots for as long as the coordinator lives.
	prog.SetWorkersFn(func() []telemetry.WorkerStatus {
		fleet := coord.Fleet()
		out := make([]telemetry.WorkerStatus, len(fleet))
		for i, ws := range fleet {
			out[i] = telemetry.WorkerStatus{
				Name:        ws.Name,
				Host:        ws.Host,
				Quarantined: ws.Quarantined,
				Leases:      ws.Leases,
				Failures:    ws.Failures,
				LastBeatAge: ws.LastBeatAge,
			}
		}
		return out
	})
	merged, _ := coord.Progress()
	prog.AddDone(merged)

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	j.mu.Lock()
	j.coord = coord
	j.shardStop = wcancel
	j.prog = prog
	j.state = StateRunning
	if j.cancelled {
		wcancel()
	}
	j.mu.Unlock()

	var wg sync.WaitGroup
	var workerMu sync.Mutex
	var workerErr error
	workersDead := make(chan struct{})
	if !spec.ExternalWorkers {
		for i := 0; i < spec.Shards; i++ {
			w, err := shard.NewWorker(shard.WorkerConfig{
				Name:      fmt.Sprintf("%s-w%d", spec.Tenant, i),
				Boards:    spec.Boards,
				Transport: shard.Direct{C: coord},
			})
			if err != nil {
				fail(err)
				wcancel()
				coord.Close()
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := w.Run(wctx); err != nil && wctx.Err() == nil {
					workerMu.Lock()
					if workerErr == nil {
						workerErr = err
					}
					workerMu.Unlock()
				}
			}()
		}
		go func() {
			wg.Wait()
			close(workersDead)
		}()
	}

	// Mirror merge progress into the job's progress snapshot while the
	// coordinator runs.
	progDone := make(chan struct{})
	go func() {
		defer close(progDone)
		t := time.NewTicker(25 * time.Millisecond)
		defer t.Stop()
		last := merged
		for {
			select {
			case <-wctx.Done():
				return
			case <-coord.Done():
				now, _ := coord.Progress()
				prog.AddDone(now - last)
				return
			case <-t.C:
				now, _ := coord.Progress()
				prog.AddDone(now - last)
				last = now
			}
		}
	}()

	exhausted := false
	select {
	case <-coord.Done():
	case <-wctx.Done():
	case <-workersDead:
		// Every in-process worker exited without finishing the plan:
		// nothing is left to drive the campaign.
		exhausted = true
	}
	wcancel()
	wg.Wait()
	<-progDone
	closeErr := coord.Close()
	j.mu.Lock()
	cancelled := j.cancelled
	total, _ := coord.Progress()
	// Like a resumed solo run, the summary covers only what this
	// execution merged, not what recovery found already durable.
	j.summary = &core.Summary{Campaign: name, Experiments: total - merged}
	j.mu.Unlock()

	if ctx.Err() != nil {
		// Killed: durable rows and the pending job row stay for the next
		// boot to resume, exactly like the solo path.
		j.setState(StatePending, "")
		return
	}
	if err := coord.Err(); err != nil {
		fail(err)
		return
	}
	switch {
	case cancelled:
		j.setState(StateCancelled, "")
		s.markDurable(name, spec.Tenant, StateCancelled)
		return
	case !coord.Complete():
		workerMu.Lock()
		err := workerErr
		workerMu.Unlock()
		if err != nil {
			fail(fmt.Errorf("shard workers failed: %w", err))
			return
		}
		if exhausted {
			fail(fmt.Errorf("shard workers exhausted before the plan completed"))
			return
		}
		// Stopped short by shutdown: stay pending for the next boot.
		j.setState(StatePending, "")
		return
	}
	if closeErr != nil {
		fail(closeErr)
		return
	}
	if err := db.Checkpoint(); err != nil {
		fail(err)
		return
	}
	j.setState(StateDone, "")
	s.markDurable(name, spec.Tenant, StateDone)
}
