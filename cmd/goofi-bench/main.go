// Command goofi-bench measures campaign-scheduler features on the E1 PID
// campaign (BenchmarkCampaignPID's workload): the same campaign runs with
// a feature on and off for a number of repetitions, and the wall-clock
// times and emulated-cycle counts are emitted as one comparable JSON
// blob. `make bench` writes both blobs:
//
//	go run ./cmd/goofi-bench -o BENCH_PR3.json
//	go run ./cmd/goofi-bench -mode robustness -o BENCH_PR4.json
//	go run ./cmd/goofi-bench -mode telemetry -o BENCH_PR5.json
//	go run ./cmd/goofi-bench -mode service -o BENCH_PR6.json
//	go run ./cmd/goofi-bench -mode shard -o BENCH_PR7.json
//
// The forwarding mode compares checkpoint fast-forwarding on vs off; the
// robustness mode compares a healthy campaign with the fault-tolerance
// layer (watchdogs, retry accounting, circuit breaker) armed vs the bare
// scheduler — its overhead_ratio is the retry path's cost when nothing
// ever fails, and must stay within a few percent of 1. The telemetry
// mode compares a fully observed campaign (span tracer, progress
// tracker, live /metrics server scraped once a second) against the bare
// scheduler; its overhead_ratio bounds the instrumentation cost. The
// service mode runs four tenant campaigns concurrently through a live
// goofid daemon (shared four-board fleet, HTTP submissions) against the
// same four campaigns run back to back the CLI way, and also reports
// the per-submit API latency.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/telemetry"
	"goofi/internal/thor"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// sample is one campaign execution's measurements.
type sample struct {
	WallMS         float64 `json:"wall_ms"`
	CyclesEmulated uint64  `json:"cycles_emulated"`
	CyclesSaved    uint64  `json:"cycles_saved"`
	Forwarded      int     `json:"forwarded"`
}

// result is the emitted blob. The ratios compare the median forwarding-on
// sample against the median forwarding-off sample.
type result struct {
	Benchmark        string   `json:"benchmark"`
	Date             string   `json:"date"`
	Experiments      int      `json:"experiments"`
	Boards           int      `json:"boards"`
	Reps             int      `json:"reps"`
	ForwardingOn     []sample `json:"forwarding_on"`
	ForwardingOff    []sample `json:"forwarding_off"`
	CycleReduction   float64  `json:"emulated_cycle_reduction"`
	WallClockSpeedup float64  `json:"wall_clock_speedup"`
}

func main() {
	n := flag.Int("n", 40, "experiments per campaign (BenchmarkCampaignPID uses 40)")
	reps := flag.Int("reps", 3, "repetitions per configuration")
	boards := flag.Int("boards", 1, "simulated boards")
	seed := flag.Int64("seed", 1, "campaign seed")
	mode := flag.String("mode", "forwarding", "comparison: forwarding, robustness, telemetry, service, shard, or forward (placement x fastpath)")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()
	var err error
	switch *mode {
	case "forwarding":
		err = run(*n, *reps, *boards, *seed, *out)
	case "forward":
		err = runForward(*n, *reps, *boards, *seed, *out)
	case "robustness":
		err = runRobustness(*n, *reps, *boards, *seed, *out)
	case "telemetry":
		err = runTelemetry(*n, *reps, *boards, *seed, *out)
	case "service":
		err = runService(*n, *reps, *boards, *seed, *out)
	case "shard":
		err = runShard(*n, *reps, *boards, *seed, *out)
	default:
		err = fmt.Errorf("unknown -mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "goofi-bench:", err)
		os.Exit(1)
	}
}

// pidCampaign mirrors BenchmarkCampaignPID's E1 campaign definition.
func pidCampaign(name string, n int, seed int64) *campaign.Campaign {
	wl := workload.PID()
	wl.OutputTail = 10
	wl.OutputTolerance = 512
	wl.ResultTolerance = 512
	return &campaign.Campaign{
		Name:           name,
		TargetName:     "thor-board",
		ChainName:      "internal",
		Locations:      []string{"cpu", "icache", "dcache"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient},
		Trigger:        trigger.Spec{Kind: "cycle"},
		RandomWindow:   [2]uint64{200, 8000},
		NumExperiments: n,
		Seed:           seed,
		Termination:    campaign.Termination{TimeoutCycles: 400_000, MaxIterations: 80},
		Workload:       wl,
		EnvSim:         &campaign.EnvSimSpec{Name: "first-order-plant"},
		LogMode:        campaign.LogNormal,
	}
}

// runOnce executes the campaign on a fresh in-memory store, including the
// analysis pass, exactly as the benchmark does.
func runOnce(camp *campaign.Campaign, boards int, forwarding bool, extra ...core.RunnerOption) (sample, error) {
	st, err := campaign.NewStore(sqldb.Open())
	if err != nil {
		return sample{}, err
	}
	tsd := scifi.TargetSystemData("thor-board")
	if err := st.PutTargetSystem(tsd); err != nil {
		return sample{}, err
	}
	if err := st.PutCampaign(camp); err != nil {
		return sample{}, err
	}
	sink := campaign.NewBatchingSink(st, 0)
	opts := []core.RunnerOption{
		core.WithSink(sink),
		core.WithBoards(boards, func() core.TargetSystem { return scifi.New(thor.DefaultConfig()) }),
	}
	if !forwarding {
		opts = append(opts, core.WithForwarding(core.ForwardConfig{Disabled: true}))
	}
	opts = append(opts, extra...)
	r, err := core.NewRunner(scifi.New(thor.DefaultConfig()), core.SCIFI, camp, tsd, opts...)
	if err != nil {
		return sample{}, err
	}
	start := time.Now()
	sum, err := r.Run(context.Background())
	if err != nil {
		return sample{}, err
	}
	if err := sink.Close(); err != nil {
		return sample{}, err
	}
	if _, err := analysis.AnalyzeAndStore(st, camp.Name); err != nil {
		return sample{}, err
	}
	return sample{
		WallMS:         float64(time.Since(start).Microseconds()) / 1000,
		CyclesEmulated: sum.CyclesEmulated,
		CyclesSaved:    sum.CyclesSaved,
		Forwarded:      sum.Forwarded,
	}, nil
}

// medianWall returns the sample with the median wall time.
func medianWall(ss []sample) sample {
	sorted := append([]sample(nil), ss...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j].WallMS < sorted[i].WallMS {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	return sorted[len(sorted)/2]
}

func run(n, reps, boards int, seed int64, out string) error {
	res := result{
		Benchmark:   "BenchmarkCampaignPID",
		Date:        time.Now().UTC().Format("2006-01-02"),
		Experiments: n,
		Boards:      boards,
		Reps:        reps,
	}
	// One untimed warmup per configuration so the first measured rep is
	// not paying JIT-free Go's cold caches (page faults, branch state).
	for _, fwd := range []bool{true, false} {
		if _, err := runOnce(pidCampaign("bench-fwd", n, seed), boards, fwd); err != nil {
			return err
		}
	}
	for rep := 0; rep < reps; rep++ {
		camp := pidCampaign("bench-fwd", n, seed)
		s, err := runOnce(camp, boards, true)
		if err != nil {
			return err
		}
		res.ForwardingOn = append(res.ForwardingOn, s)
		camp = pidCampaign("bench-fwd", n, seed)
		s, err = runOnce(camp, boards, false)
		if err != nil {
			return err
		}
		res.ForwardingOff = append(res.ForwardingOff, s)
	}
	on, off := medianWall(res.ForwardingOn), medianWall(res.ForwardingOff)
	res.CycleReduction = float64(off.CyclesEmulated) / float64(on.CyclesEmulated)
	res.WallClockSpeedup = off.WallMS / on.WallMS
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if out == "" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	fmt.Printf("forwarding on: %d cycles emulated; off: %d; reduction %.2fx, wall %.2fx (%s)\n",
		on.CyclesEmulated, off.CyclesEmulated, res.CycleReduction, res.WallClockSpeedup, out)
	return os.WriteFile(out, blob, 0o644)
}

// robustnessResult compares a healthy campaign with the fault-tolerance
// layer armed against the bare scheduler. overhead_ratio is median
// robustness-on wall time over median robustness-off wall time; retries
// and invalid runs must both be zero (the harness never fails here — any
// non-zero value means the bench itself is broken).
type robustnessResult struct {
	Benchmark     string   `json:"benchmark"`
	Date          string   `json:"date"`
	Experiments   int      `json:"experiments"`
	Boards        int      `json:"boards"`
	Reps          int      `json:"reps"`
	RobustnessOn  []sample `json:"robustness_on"`
	RobustnessOff []sample `json:"robustness_off"`
	OverheadRatio float64  `json:"overhead_ratio"`
}

// benchRetryPolicy arms every gate of the fault-tolerance layer the way
// a cautious user would: retries, a board circuit breaker, and a
// watchdog deadline generous enough to never fire on a healthy run.
func benchRetryPolicy() core.RunnerOption {
	return core.WithRetryPolicy(core.RetryPolicy{
		MaxRetries:            2,
		BoardFailureThreshold: 3,
		WatchdogTimeout:       30 * time.Second,
	})
}

func runRobustness(n, reps, boards int, seed int64, out string) error {
	res := robustnessResult{
		Benchmark:   "BenchmarkCampaignPID/robustness",
		Date:        time.Now().UTC().Format("2006-01-02"),
		Experiments: n,
		Boards:      boards,
		Reps:        reps,
	}
	for _, on := range []bool{true, false} { // untimed warmup
		opts := []core.RunnerOption{}
		if on {
			opts = append(opts, benchRetryPolicy())
		}
		if _, err := runOnce(pidCampaign("bench-robust", n, seed), boards, true, opts...); err != nil {
			return err
		}
	}
	for rep := 0; rep < reps; rep++ {
		s, err := runOnce(pidCampaign("bench-robust", n, seed), boards, true, benchRetryPolicy())
		if err != nil {
			return err
		}
		res.RobustnessOn = append(res.RobustnessOn, s)
		s, err = runOnce(pidCampaign("bench-robust", n, seed), boards, true)
		if err != nil {
			return err
		}
		res.RobustnessOff = append(res.RobustnessOff, s)
	}
	on, off := medianWall(res.RobustnessOn), medianWall(res.RobustnessOff)
	res.OverheadRatio = on.WallMS / off.WallMS
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if out == "" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	fmt.Printf("robustness on: %.1fms; off: %.1fms; overhead %.3fx (%s)\n",
		on.WallMS, off.WallMS, res.OverheadRatio, out)
	return os.WriteFile(out, blob, 0o644)
}

// telemetryResult compares a fully observed campaign against the bare
// scheduler. overhead_ratio is median telemetry-on wall time over median
// telemetry-off wall time; the acceptance bound is 1.05 (the span
// tracer, progress tracker, and a live scraper together must cost under
// five percent).
type telemetryResult struct {
	Benchmark     string   `json:"benchmark"`
	Date          string   `json:"date"`
	Experiments   int      `json:"experiments"`
	Boards        int      `json:"boards"`
	Reps          int      `json:"reps"`
	TelemetryOn   []sample `json:"telemetry_on"`
	TelemetryOff  []sample `json:"telemetry_off"`
	OverheadRatio float64  `json:"overhead_ratio"`
}

// runTelemetryOnce executes the campaign with the full observability
// stack attached: span tracer, progress tracker, and an HTTP server
// whose /metrics endpoint is scraped every 50ms for the duration — the
// worst realistic case for exposition-lock contention.
func runTelemetryOnce(camp *campaign.Campaign, boards int) (sample, error) {
	tr := telemetry.NewTracer()
	prog := telemetry.NewProgress(boards)
	srv, err := telemetry.NewServer("127.0.0.1:0", telemetry.Default, prog)
	if err != nil {
		return sample{}, err
	}
	defer srv.Close()
	done := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				resp, err := http.Get("http://" + srv.Addr() + "/metrics")
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
	}()
	s, err := runOnce(camp, boards, true, core.WithTelemetry(tr, prog))
	close(done)
	<-scraped
	return s, err
}

func runTelemetry(n, reps, boards int, seed int64, out string) error {
	res := telemetryResult{
		Benchmark:   "BenchmarkCampaignPID/telemetry",
		Date:        time.Now().UTC().Format("2006-01-02"),
		Experiments: n,
		Boards:      boards,
		Reps:        reps,
	}
	for _, on := range []bool{true, false} { // untimed warmup
		var err error
		if on {
			_, err = runTelemetryOnce(pidCampaign("bench-telemetry", n, seed), boards)
		} else {
			_, err = runOnce(pidCampaign("bench-telemetry", n, seed), boards, true)
		}
		if err != nil {
			return err
		}
	}
	for rep := 0; rep < reps; rep++ {
		s, err := runTelemetryOnce(pidCampaign("bench-telemetry", n, seed), boards)
		if err != nil {
			return err
		}
		res.TelemetryOn = append(res.TelemetryOn, s)
		s, err = runOnce(pidCampaign("bench-telemetry", n, seed), boards, true)
		if err != nil {
			return err
		}
		res.TelemetryOff = append(res.TelemetryOff, s)
	}
	on, off := medianWall(res.TelemetryOn), medianWall(res.TelemetryOff)
	res.OverheadRatio = on.WallMS / off.WallMS
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if out == "" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	fmt.Printf("telemetry on: %.1fms; off: %.1fms; overhead %.3fx (%s)\n",
		on.WallMS, off.WallMS, res.OverheadRatio, out)
	return os.WriteFile(out, blob, 0o644)
}
