package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/asm"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
	"goofi/internal/workload"
)

// The forward mode (PR 8) crosses the two execution optimisations on the
// E1 PID campaign: checkpoint placement {interval, optimal} × thor
// execution {fastpath, steppath}. Placement changes how many cycles are
// re-emulated between a restore point and its injection; the fast path
// changes how much wall clock each emulated cycle costs. Records are
// byte-identical across all four cells (pinned by the differential
// suites), so the cells differ only in the two measured axes.

// forwardSample is one campaign execution under a placement/execution
// configuration.
type forwardSample struct {
	WallMS         float64 `json:"wall_ms"`
	CyclesEmulated uint64  `json:"cycles_emulated"`
	CyclesSaved    uint64  `json:"cycles_saved"`
	Forwarded      int     `json:"forwarded"`
	PredictedDelta uint64  `json:"predicted_delta_cycles"`
	AchievedDelta  uint64  `json:"achieved_delta_cycles"`
	// PrunedLatent and PrunedOverwritten count the experiments logged
	// from the reference run's def-use table without being emulated;
	// CyclesEmulated covers the others and the reference run.
	PrunedLatent      int `json:"pruned_latent"`
	PrunedOverwritten int `json:"pruned_overwritten"`
}

// forwardResult is the BENCH_PR8 blob. The top-level cycle counts are
// deterministic (fixed seed, explicit snapshot cost) and asserted by
// CI: optimal placement must never emulate more than interval.
type forwardResult struct {
	Benchmark   string                     `json:"benchmark"`
	Date        string                     `json:"date"`
	Experiments int                        `json:"experiments"`
	Boards      int                        `json:"boards"`
	Reps        int                        `json:"reps"`
	Configs     map[string][]forwardSample `json:"configs"`
	// CyclesEmulatedInterval/Optimal are the (deterministic) emulated
	// cycle counts of the two placements, fast path on.
	CyclesEmulatedInterval uint64 `json:"cycles_emulated_interval"`
	CyclesEmulatedOptimal  uint64 `json:"cycles_emulated_optimal"`
	// PrunedLatent and PrunedOverwritten are the interval cell's pruned
	// counts — as deterministic as the cycle counts, and independent of
	// placement and execution mode. CI's prune-smoke job pins all three.
	PrunedLatent      int `json:"pruned_latent"`
	PrunedOverwritten int `json:"pruned_overwritten"`
	// AchievedVsOptimal is the optimal plan's achieved re-emulation
	// delta over its model prediction — 1.0 means the campaign realised
	// exactly the planner's optimum (values slightly below 1.0 are
	// capture-overshoot in the campaign's favour).
	AchievedVsOptimal float64 `json:"achieved_vs_optimal"`
	// FastpathWallSpeedup is median steppath wall over median fastpath
	// wall for the full interval-placement campaign.
	FastpathWallSpeedup float64 `json:"fastpath_wall_speedup"`
	// ThorLoopSpeedup is the pure-emulation microbenchmark: a busy loop
	// executed with CPU.Run vs CPU.RunFast, isolating the fast path from
	// scan-chain and logging overhead.
	ThorLoopSpeedup float64 `json:"thor_loop_speedup"`
	// ReferenceWallSpeedup is Run vs RunFast on the actual reference
	// workload instruction stream: the sort16 batch program executed to
	// completion on bare CPUs (setup untimed), the closest measurable
	// analogue of "the reference run's emulation wall clock".
	ReferenceWallSpeedup float64 `json:"reference_wall_speedup"`
}

// forwardConfigs are the four cells of the comparison matrix.
var forwardConfigs = []struct {
	name      string
	placement string
	fastpath  bool
}{
	{"interval/fastpath", core.PlacementInterval, true},
	{"interval/steppath", core.PlacementInterval, false},
	{"optimal/fastpath", core.PlacementOptimal, true},
	{"optimal/steppath", core.PlacementOptimal, false},
}

// runForwardOnce executes the PID campaign under one cell of the matrix.
func runForwardOnce(n int, boards int, seed int64, placement string, fastpath bool) (forwardSample, error) {
	camp := pidCampaign("bench-placement", n, seed)
	var scifiOpts []scifi.Option
	if !fastpath {
		scifiOpts = append(scifiOpts, scifi.NoFastPath())
	}
	factory := func() core.TargetSystem { return scifi.New(thor.DefaultConfig(), scifiOpts...) }
	st, err := campaign.NewStore(sqldb.Open())
	if err != nil {
		return forwardSample{}, err
	}
	tsd := scifi.TargetSystemData("thor-board")
	if err := st.PutTargetSystem(tsd); err != nil {
		return forwardSample{}, err
	}
	if err := st.PutCampaign(camp); err != nil {
		return forwardSample{}, err
	}
	sink := campaign.NewBatchingSink(st, 0)
	opts := []core.RunnerOption{
		core.WithSink(sink),
		core.WithBoards(boards, factory),
		// An explicit snapshot cost keeps the optimal plan — and
		// therefore every cycle count in the blob — deterministic
		// across hosts.
		core.WithForwarding(core.ForwardConfig{
			Placement:          placement,
			SnapshotCostCycles: core.DefaultSnapshotCostCycles,
		}),
	}
	r, err := core.NewRunner(factory(), core.SCIFI, camp, tsd, opts...)
	if err != nil {
		return forwardSample{}, err
	}
	start := time.Now()
	sum, err := r.Run(context.Background())
	wall := time.Since(start) // the two axes affect only the run, not analysis
	if err != nil {
		return forwardSample{}, err
	}
	if err := sink.Close(); err != nil {
		return forwardSample{}, err
	}
	if _, err := analysis.AnalyzeAndStore(st, camp.Name); err != nil {
		return forwardSample{}, err
	}
	return forwardSample{
		WallMS:         float64(wall.Microseconds()) / 1000,
		CyclesEmulated: sum.CyclesEmulated,
		CyclesSaved:    sum.CyclesSaved,
		Forwarded:      sum.Forwarded,
		PredictedDelta: sum.ForwardPredictedDelta,
		AchievedDelta:  sum.ForwardDeltaCycles,

		PrunedLatent:      sum.Pruned.Latent,
		PrunedOverwritten: sum.Pruned.Overwritten,
	}, nil
}

// thorLoopSrc is the pure-emulation microbenchmark workload: a
// non-overflowing busy loop with a watchdog kick, the same shape the
// fast-path benchmarks in internal/thor use.
const thorLoopSrc = `
	ldi r2, 1
loop:
	addi r2, r2, 1
	mul r3, r2, r2
	xor r4, r3, r2
	and r5, r4, r3
	kick
	cmpi r2, 0
	bne loop
	halt
`

// thorLoopSpeedup measures Run vs RunFast on the busy loop: reps
// repetitions of a 400k-cycle run each, median over median.
func thorLoopSpeedup(reps int) (float64, error) {
	prog, err := asm.Assemble(thorLoopSrc)
	if err != nil {
		return 0, err
	}
	const cycles = 400_000
	measure := func(fast bool) (float64, error) {
		times := make([]float64, 0, reps)
		for i := 0; i < reps+1; i++ {
			c := thor.New(thor.DefaultConfig())
			if err := c.LoadMemory(0, prog.Image); err != nil {
				return 0, err
			}
			start := time.Now()
			var st thor.Status
			if fast {
				st = c.RunFast(cycles)
			} else {
				st = c.Run(cycles)
			}
			if st != thor.StatusOutOfBudget {
				return 0, fmt.Errorf("thor loop stopped with %v", st)
			}
			if i > 0 { // first rep is untimed warmup
				times = append(times, float64(time.Since(start).Nanoseconds()))
			}
		}
		med := medianFloat(times)
		return med, nil
	}
	slow, err := measure(false)
	if err != nil {
		return 0, err
	}
	fast, err := measure(true)
	if err != nil {
		return 0, err
	}
	return slow / fast, nil
}

// referenceWallSpeedup measures the fast path on the reference
// workload's own instruction stream: sort16 run to completion. CPUs are
// built and loaded outside the timed region so only execution is
// priced; the batch is large enough (100 runs per sample) to time
// reliably.
func referenceWallSpeedup(reps int) (float64, error) {
	prog, err := asm.Assemble(workload.Sort().Source)
	if err != nil {
		return 0, err
	}
	const batch = 100
	const budget = 1_000_000
	measure := func(fast bool) (float64, error) {
		times := make([]float64, 0, reps)
		for rep := 0; rep < reps+1; rep++ {
			cpus := make([]*thor.CPU, batch)
			for i := range cpus {
				c := thor.New(thor.DefaultConfig())
				if err := c.LoadMemory(0, prog.Image); err != nil {
					return 0, err
				}
				cpus[i] = c
			}
			start := time.Now()
			for _, c := range cpus {
				var st thor.Status
				if fast {
					st = c.RunFast(budget)
				} else {
					st = c.Run(budget)
				}
				if st != thor.StatusHalted && st != thor.StatusIterationEnd {
					return 0, fmt.Errorf("sort16 reference stopped with %v", st)
				}
			}
			if rep > 0 { // first rep is untimed warmup
				times = append(times, float64(time.Since(start).Nanoseconds()))
			}
		}
		return medianFloat(times), nil
	}
	slow, err := measure(false)
	if err != nil {
		return 0, err
	}
	fast, err := measure(true)
	if err != nil {
		return 0, err
	}
	return slow / fast, nil
}

func medianFloat(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	return sorted[len(sorted)/2]
}

func runForward(n, reps, boards int, seed int64, out string) error {
	res := forwardResult{
		Benchmark:   "BenchmarkCampaignPID/placement-x-fastpath",
		Date:        time.Now().UTC().Format("2006-01-02"),
		Experiments: n,
		Boards:      boards,
		Reps:        reps,
		Configs:     map[string][]forwardSample{},
	}
	for _, cfg := range forwardConfigs { // untimed warmup per cell
		if _, err := runForwardOnce(n, boards, seed, cfg.placement, cfg.fastpath); err != nil {
			return fmt.Errorf("%s: %w", cfg.name, err)
		}
	}
	for rep := 0; rep < reps; rep++ {
		for _, cfg := range forwardConfigs {
			s, err := runForwardOnce(n, boards, seed, cfg.placement, cfg.fastpath)
			if err != nil {
				return fmt.Errorf("%s: %w", cfg.name, err)
			}
			res.Configs[cfg.name] = append(res.Configs[cfg.name], s)
		}
	}
	medOf := func(name string) forwardSample {
		ss := res.Configs[name]
		sorted := append([]forwardSample(nil), ss...)
		for i := range sorted {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j].WallMS < sorted[i].WallMS {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		return sorted[len(sorted)/2]
	}
	interval := medOf("interval/fastpath")
	optimal := medOf("optimal/fastpath")
	res.CyclesEmulatedInterval = interval.CyclesEmulated
	res.CyclesEmulatedOptimal = optimal.CyclesEmulated
	res.PrunedLatent, res.PrunedOverwritten = interval.PrunedLatent, interval.PrunedOverwritten
	if optimal.PredictedDelta > 0 {
		res.AchievedVsOptimal = float64(optimal.AchievedDelta) / float64(optimal.PredictedDelta)
	}
	res.FastpathWallSpeedup = medOf("interval/steppath").WallMS / interval.WallMS
	loop, err := thorLoopSpeedup(reps + 2)
	if err != nil {
		return err
	}
	res.ThorLoopSpeedup = loop
	ref, err := referenceWallSpeedup(reps + 2)
	if err != nil {
		return err
	}
	res.ReferenceWallSpeedup = ref
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if out == "" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	fmt.Printf("placement: interval %d cycles emulated, optimal %d (achieved/optimal %.3f), %d latent + %d overwritten pruned; fastpath wall %.2fx, thor loop %.2fx, reference %.2fx (%s)\n",
		res.CyclesEmulatedInterval, res.CyclesEmulatedOptimal, res.AchievedVsOptimal,
		res.PrunedLatent, res.PrunedOverwritten,
		res.FastpathWallSpeedup, res.ThorLoopSpeedup, res.ReferenceWallSpeedup, out)
	return os.WriteFile(out, blob, 0o644)
}
