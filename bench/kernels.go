package main

// Kernels: small fixed measurements of single layers through their
// public functions. They are workload-independent in shape and run in
// every traced invocation; the two store kernels replay the traced
// workload's own rows so that row size is the workload's.

import (
	"fmt"
	"path/filepath"
	"time"

	"goofi/internal/asm"
	"goofi/internal/campaign"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
	builtin "goofi/internal/workload"
)

const (
	kernelThorCycles   = 5_000_000
	kernelThorReps     = 9
	kernelSnapshotReps = 200
	kernelBarrierReps  = 200
	kernelInsertRows   = 4096
)

// thorKernel measures bare emulation speed (CPU.RunFast on the PID
// image, the path campaigns execute) and the cost of one whole-board
// snapshot and restore.
func thorKernel() (mcyclesPerS, snapshotUS, restoreUS float64, err error) {
	prog, err := asm.Assemble(builtin.PID().Source)
	if err != nil {
		return 0, 0, 0, err
	}
	c := thor.New(thor.DefaultConfig())
	var speeds []float64
	for rep := 0; rep < kernelThorReps; rep++ {
		c.Reset()
		c.ClearMemory()
		if err := c.LoadMemory(0, prog.Image); err != nil {
			return 0, 0, 0, err
		}
		start := time.Now()
		for c.Cycle() < kernelThorCycles {
			switch st := c.RunFast(kernelThorCycles - c.Cycle()); st {
			case thor.StatusIterationEnd:
				if err := c.ResumeIteration(); err != nil {
					return 0, 0, 0, err
				}
			case thor.StatusOutOfBudget:
			default:
				return 0, 0, 0, fmt.Errorf("thor kernel stopped in status %v at cycle %d", st, c.Cycle())
			}
		}
		speeds = append(speeds, float64(c.Cycle())/time.Since(start).Seconds()/1e6)
	}
	var snaps, restores []float64
	var snap *thor.Snapshot
	for rep := 0; rep < kernelSnapshotReps; rep++ {
		start := time.Now()
		snap = c.Snapshot()
		snaps = append(snaps, float64(time.Since(start).Nanoseconds())/1e3)
	}
	for rep := 0; rep < kernelSnapshotReps; rep++ {
		start := time.Now()
		if err := c.Restore(snap); err != nil {
			return 0, 0, 0, err
		}
		restores = append(restores, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(speeds), median(snaps), median(restores), nil
}

// kernelStore opens a store holding a copy of the scenario's campaign
// under another name, ready to take replayed rows.
func kernelStore(db *sqldb.DB, sc *scenario) (*campaign.Store, error) {
	st, err := campaign.NewStore(db)
	if err != nil {
		return nil, err
	}
	if err := st.PutTargetSystem(sc.tsd); err != nil {
		return nil, err
	}
	camp := *sc.camp
	camp.Name = "kernel"
	return st, st.PutCampaign(&camp)
}

// replay returns count of the scenario's records renamed into the
// kernel campaign, cycling through them with unique names from offset.
func replay(sc *scenario, offset, count int) []*campaign.ExperimentRecord {
	out := make([]*campaign.ExperimentRecord, count)
	for i := range out {
		rec := *sc.records[(offset+i)%len(sc.records)]
		rec.Name = fmt.Sprintf("kernel/row%09d", offset+i)
		rec.Campaign = "kernel"
		out[i] = &rec
	}
	return out
}

// storeKernels measures the durable flush the scheduler pays at every
// checkpoint (a 16-row batch plus Barrier on a WAL-backed store, in ms
// per flush) and record encode + insert alone (64-row batches into an
// in-memory database, in us per row).
func storeKernels(dir string, sc *scenario) (barrierMS []float64, encodeInsertUS float64, err error) {
	if len(sc.records) == 0 {
		return nil, 0, fmt.Errorf("store kernels need the scenario's rows")
	}
	db, err := sqldb.OpenAt(filepath.Join(dir, "kernel.db"), sqldb.SyncBarrier)
	if err != nil {
		return nil, 0, err
	}
	defer db.Close()
	st, err := kernelStore(db, sc)
	if err != nil {
		return nil, 0, err
	}
	for rep := 0; rep < kernelBarrierReps; rep++ {
		batch := replay(sc, rep*16, 16)
		start := time.Now()
		if err := st.LogExperimentBatch(batch); err != nil {
			return nil, 0, err
		}
		if err := db.Barrier(); err != nil {
			return nil, 0, err
		}
		barrierMS = append(barrierMS, float64(time.Since(start).Nanoseconds())/1e6)
	}

	mem, err := kernelStore(sqldb.Open(), sc)
	if err != nil {
		return nil, 0, err
	}
	var total time.Duration
	for off := 0; off < kernelInsertRows; off += campaign.DefaultBatchSize {
		batch := replay(sc, off, campaign.DefaultBatchSize)
		start := time.Now()
		if err := mem.LogExperimentBatch(batch); err != nil {
			return nil, 0, err
		}
		total += time.Since(start)
	}
	return barrierMS, float64(total.Nanoseconds()) / 1e3 / kernelInsertRows, nil
}
