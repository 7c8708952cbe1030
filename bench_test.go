// Benchmarks regenerating the measurements behind EXPERIMENTS.md: one
// bench per experiment (E1–E8) plus microbenchmarks of the substrates.
// Shape metrics (class fractions, coverage) are attached via
// b.ReportMetric so `go test -bench` output carries them alongside the
// timings; the full tables come from `go run ./cmd/goofi-experiments`.
package goofi_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"goofi/internal/analysis"
	"goofi/internal/asm"
	"goofi/internal/bitvec"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/preinject"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/swifi"
	"goofi/internal/thor"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

func benchStore(b testing.TB) (*campaign.Store, *campaign.TargetSystemData) {
	b.Helper()
	st, err := campaign.NewStore(sqldb.Open())
	if err != nil {
		b.Fatal(err)
	}
	tsd := scifi.TargetSystemData("thor-board")
	if err := st.PutTargetSystem(tsd); err != nil {
		b.Fatal(err)
	}
	return st, tsd
}

func sortCampaign(name string, n int, seed int64, locs []string) *campaign.Campaign {
	return &campaign.Campaign{
		Name:           name,
		TargetName:     "thor-board",
		ChainName:      "internal",
		Locations:      locs,
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient},
		Trigger:        trigger.Spec{Kind: "cycle"},
		RandomWindow:   [2]uint64{10, 1600},
		NumExperiments: n,
		Seed:           seed,
		Termination:    campaign.Termination{TimeoutCycles: 100_000},
		Workload:       workload.Sort(),
		LogMode:        campaign.LogNormal,
	}
}

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

func runCampaign(b testing.TB, st *campaign.Store, tsd *campaign.TargetSystemData,
	tgt core.TargetSystem, alg core.Algorithm, camp *campaign.Campaign,
	opts ...core.RunnerOption) (*core.Summary, *analysis.Report) {
	b.Helper()
	sum, rep, _ := runCampaignSet(b, st, tsd, tgt, alg, camp, opts...)
	return sum, rep
}

// runCampaignSet is runCampaign that also returns the forward set the run
// used (core.Runner.ForwardSet).
func runCampaignSet(b testing.TB, st *campaign.Store, tsd *campaign.TargetSystemData,
	tgt core.TargetSystem, alg core.Algorithm, camp *campaign.Campaign,
	opts ...core.RunnerOption) (*core.Summary, *analysis.Report, *core.ForwardSet) {
	b.Helper()
	if err := st.PutCampaign(camp); err != nil {
		b.Fatal(err)
	}
	if err := st.DeleteExperiments(camp.Name); err != nil {
		b.Fatal(err)
	}
	sink := campaign.NewBatchingSink(st, 0)
	opts = append(opts, core.WithSink(sink))
	r, err := core.NewRunner(tgt, alg, camp, tsd, opts...)
	if err != nil {
		b.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		b.Fatal(err)
	}
	rep, err := analysis.AnalyzeAndStore(st, camp.Name)
	if err != nil {
		b.Fatal(err)
	}
	return sum, rep, r.ForwardSet()
}

// BenchmarkSCIFIExperiment measures one complete SCIFI fault injection
// experiment (Fig 2 sequence) including scan-chain read/inject/write.
func BenchmarkSCIFIExperiment(b *testing.B) {
	camp := sortCampaign("bench-one", 1, 1, []string{"cpu"})
	tgt := scifi.New(thor.DefaultConfig())
	f, err := thor.ScanFieldByName("cpu.r3")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := &core.Experiment{
			Campaign: camp, Seq: 0, Name: "bench/exp",
			Fault:   &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{f.Offset + i%32}},
			Trigger: trigger.Spec{Kind: "cycle", Cycle: 1000},
		}
		if err := core.SCIFI.Run(tgt, ex); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignPID is experiment E1: a SCIFI campaign over the PID
// control application with the taxonomy fractions reported as metrics.
// The boards=4 variant runs the same campaign on the worker-pool
// scheduler with four simulated boards; outcomes are identical by
// construction (plan-first determinism), only wall clock changes. The
// no-checkpoints variant disables fast-forwarding, so the gap in
// cycles-emulated (and ns/op) against boards=1 is the checkpoint win.
func BenchmarkCampaignPID(b *testing.B) {
	const n = 40
	variants := []struct {
		name   string
		boards int
		fwOff  bool
	}{
		{"boards=1", 1, false},
		{"boards=4", 4, false},
		{"boards=1/no-checkpoints", 1, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			st, tsd := benchStore(b)
			var opts []core.RunnerOption
			if v.boards > 1 {
				opts = append(opts, core.WithBoards(v.boards, func() core.TargetSystem {
					return scifi.New(thor.DefaultConfig())
				}))
			}
			if v.fwOff {
				opts = append(opts, core.WithForwarding(core.ForwardConfig{Disabled: true}))
			}
			var sum *core.Summary
			var rep *analysis.Report
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum, rep = runCampaign(b, st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI,
					pidCampaign("bench-e1", n, int64(i+1)), opts...)
			}
			b.StopTimer()
			b.ReportMetric(rep.Fraction(analysis.ClassDetected), "detected/inj")
			b.ReportMetric(rep.Fraction(analysis.ClassEscaped), "escaped/inj")
			b.ReportMetric(rep.Fraction(analysis.ClassLatent), "latent/inj")
			b.ReportMetric(rep.Fraction(analysis.ClassOverwritten), "overwritten/inj")
			b.ReportMetric(rep.Coverage.P, "coverage")
			b.ReportMetric(float64(sum.CyclesEmulated), "cycles-emulated")
			b.ReportMetric(float64(sum.Forwarded), "forwarded")
		})
	}
}

// BenchmarkNormalVsDetailMode is experiment E2: detail-mode logging cost.
func BenchmarkNormalVsDetailMode(b *testing.B) {
	for _, mode := range []campaign.LogMode{campaign.LogNormal, campaign.LogDetail} {
		b.Run(string(mode), func(b *testing.B) {
			st, tsd := benchStore(b)
			camp := sortCampaign("bench-e2", 5, 3, []string{"cpu"})
			camp.Termination.TimeoutCycles = 30_000
			camp.LogMode = mode
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runCampaign(b, st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, camp)
			}
		})
	}
}

// BenchmarkSCIFIvsSWIFI is experiment E3: per-experiment cost and
// effectiveness of the two techniques on the same workload.
func BenchmarkSCIFIvsSWIFI(b *testing.B) {
	const n = 30
	b.Run("scifi", func(b *testing.B) {
		st, tsd := benchStore(b)
		var rep *analysis.Report
		for i := 0; i < b.N; i++ {
			_, rep = runCampaign(b, st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI,
				sortCampaign("bench-e3s", n, 7, []string{"cpu", "icache", "dcache"}))
		}
		b.ReportMetric(rep.Coverage.P, "coverage")
		b.ReportMetric(rep.EffectiveRate.P, "effective")
	})
	b.Run("swifi-preruntime", func(b *testing.B) {
		imgSize, err := asm.ImageSize(workload.Sort().Source)
		if err != nil {
			b.Fatal(err)
		}
		st, err := campaign.NewStore(sqldb.Open())
		if err != nil {
			b.Fatal(err)
		}
		tsd := swifi.TargetSystemData("thor-swifi", imgSize)
		if err := st.PutTargetSystem(tsd); err != nil {
			b.Fatal(err)
		}
		camp := sortCampaign("bench-e3w", n, 7, []string{"mem"})
		camp.TargetName = "thor-swifi"
		camp.ChainName = swifi.MemoryChainName
		camp.RandomWindow = [2]uint64{}
		camp.Trigger = trigger.Spec{Kind: "cycle", Cycle: 0}
		var rep *analysis.Report
		for i := 0; i < b.N; i++ {
			_, rep = runCampaign(b, st, tsd, swifi.New(thor.DefaultConfig()),
				core.PreRuntimeSWIFI, camp)
		}
		b.ReportMetric(rep.Coverage.P, "coverage")
		b.ReportMetric(rep.EffectiveRate.P, "effective")
	})
}

// BenchmarkAssertionsRecovery is experiment E4: the hardened controller's
// critical-failure fraction vs the bare one.
func BenchmarkAssertionsRecovery(b *testing.B) {
	const n = 30
	variants := []struct {
		name string
		wl   campaign.WorkloadSpec
	}{
		{"bare", workload.PID()},
		{"hardened", workload.PIDAssert()},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			st, tsd := benchStore(b)
			camp := pidCampaign("bench-e4", n, 42)
			wl := v.wl
			wl.OutputTail = 10
			wl.OutputTolerance = 512
			wl.ResultTolerance = 512
			camp.Workload = wl
			camp.Locations = []string{"cpu"}
			camp.EnvSim = &campaign.EnvSimSpec{Name: "engine"}
			camp.Termination.MaxIterations = 100
			var rep *analysis.Report
			for i := 0; i < b.N; i++ {
				_, rep = runCampaign(b, st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, camp)
			}
			b.ReportMetric(rep.Fraction(analysis.ClassEscaped), "critical/inj")
			b.ReportMetric(float64(rep.Recovered), "recoveries")
		})
	}
}

// BenchmarkPreInjection is experiment E5: the liveness filter's cost and
// its effective-yield improvement.
func BenchmarkPreInjection(b *testing.B) {
	const n = 30
	regs := make([]string, 0, thor.NumRegs)
	for i := 0; i < thor.NumRegs; i++ {
		regs = append(regs, fmt.Sprintf("cpu.r%d", i))
	}
	b.Run("analysis", func(b *testing.B) {
		camp := sortCampaign("bench-e5a", n, 5, regs)
		for i := 0; i < b.N; i++ {
			if _, err := preinject.AnalyzeWorkload(thor.DefaultConfig(), camp); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, filtered := range []bool{false, true} {
		name := "plain"
		if filtered {
			name = "filtered"
		}
		b.Run(name, func(b *testing.B) {
			st, tsd := benchStore(b)
			camp := sortCampaign("bench-e5-"+name, n, 5, regs)
			var opts []core.RunnerOption
			if filtered {
				a, err := preinject.AnalyzeWorkload(thor.DefaultConfig(), camp)
				if err != nil {
					b.Fatal(err)
				}
				opts = append(opts, core.WithInjectionFilter(a.Filter()))
			}
			var rep *analysis.Report
			for i := 0; i < b.N; i++ {
				_, rep = runCampaign(b, st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, camp, opts...)
			}
			b.ReportMetric(rep.EffectiveRate.P, "effective")
		})
	}
}

// BenchmarkFaultModels is experiment E6: the four fault models on the
// same fault locations.
func BenchmarkFaultModels(b *testing.B) {
	const n = 30
	models := []faultmodel.Spec{
		{Kind: faultmodel.Transient},
		{Kind: faultmodel.Intermittent, ActiveProb: 0.3},
		{Kind: faultmodel.StuckAt0},
		{Kind: faultmodel.StuckAt1},
	}
	for _, m := range models {
		b.Run(string(m.Kind), func(b *testing.B) {
			st, tsd := benchStore(b)
			camp := sortCampaign("bench-e6", n, 11, []string{"cpu"})
			camp.FaultModel = m
			var rep *analysis.Report
			for i := 0; i < b.N; i++ {
				_, rep = runCampaign(b, st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, camp)
			}
			b.ReportMetric(rep.EffectiveRate.P, "effective")
			b.ReportMetric(rep.Fraction(analysis.ClassOverwritten), "overwritten/inj")
		})
	}
}

// BenchmarkLoggedStateInsert is experiment E7: LoggedSystemState insert
// throughput.
func BenchmarkLoggedStateInsert(b *testing.B) {
	st, tsd := benchStore(b)
	camp := sortCampaign("bench-e7", 1, 1, []string{"cpu"})
	if err := st.PutCampaign(camp); err != nil {
		b.Fatal(err)
	}
	_ = tsd
	state := campaign.StateVector{Memory: map[string][]byte{"x": make([]byte, 64)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := &campaign.ExperimentRecord{
			Name:     fmt.Sprintf("bench-e7/row%09d", i),
			Campaign: "bench-e7",
			Step:     -1,
			Data:     campaign.ExperimentData{Seq: i},
			State:    state,
		}
		if err := st.LogExperiment(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoggedStateInsertWAL is E7 with durability on: the store sits
// on a file-backed database whose writes go through the write-ahead log
// (SyncBarrier, the goofi CLI default — appends buffer, fsync only at
// checkpoint barriers). The gap to BenchmarkLoggedStateInsert is the
// price of crash recovery on the insert hot path.
func BenchmarkLoggedStateInsertWAL(b *testing.B) {
	db, err := sqldb.OpenAt(filepath.Join(b.TempDir(), "bench.db"), sqldb.SyncBarrier)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	st, err := campaign.NewStore(db)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.PutTargetSystem(scifi.TargetSystemData("thor-board")); err != nil {
		b.Fatal(err)
	}
	camp := sortCampaign("bench-e7", 1, 1, []string{"cpu"})
	if err := st.PutCampaign(camp); err != nil {
		b.Fatal(err)
	}
	state := campaign.StateVector{Memory: map[string][]byte{"x": make([]byte, 64)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := &campaign.ExperimentRecord{
			Name:     fmt.Sprintf("bench-e7/row%09d", i),
			Campaign: "bench-e7",
			Step:     -1,
			Data:     campaign.ExperimentData{Seq: i},
			State:    state,
		}
		if err := st.LogExperiment(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := db.Barrier(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDecodeRow measures the read side of one LoggedSystemState row's
// stateVector — what every analysis, listing and export pays per
// experiment — on the two row shapes of the campaign benchmark: pid-long's
// (a thousand plant outputs, ~6 KB) and sort-solo's (two result arrays,
// ~1.2 KB), both with the full 5,412-bit scan state.
func BenchmarkDecodeRow(b *testing.B) {
	scan := make([]byte, 688)
	for i := range scan {
		scan[i] = byte(i * 37)
	}
	outputs := make([]uint32, 1000)
	for i := range outputs {
		outputs[i] = uint32(15400 + 11*i)
	}
	shapes := []struct {
		name  string
		state campaign.StateVector
	}{
		{"pid-long", campaign.StateVector{Scan: scan,
			Memory:  map[string][]byte{"acc": make([]byte, 4), "last_u": make([]byte, 4)},
			Outputs: map[uint16][]uint32{1: outputs}}},
		{"sort", campaign.StateVector{Scan: scan,
			Memory:  map[string][]byte{"arr": make([]byte, 64), "checksum": make([]byte, 64)},
			Outputs: map[uint16][]uint32{1: {0x5a5a}}}},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			blob, err := sh.state.Encode()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := campaign.DecodeStateVector(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzeCampaign measures the analysis phase on a finished
// campaign: AnalyzeAndStore — decode every row, classify it against the
// reference, replace the campaign's AnalysisResults — over an in-memory
// store holding a 400-experiment PID campaign.
func BenchmarkAnalyzeCampaign(b *testing.B) {
	const n = 400
	st, tsd := benchStore(b)
	camp := pidCampaign("bench-analyze", n, 1)
	runCampaign(b, st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, camp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := analysis.AnalyzeAndStore(st, camp.Name)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Total != n {
			b.Fatalf("classified %d of %d", rep.Total, n)
		}
	}
}

// BenchmarkAnalyzeSort6000 is the analysis pass at the campaign
// benchmark's sort-solo size: AnalyzeAndStore over a 6,000-experiment
// sort16 campaign on an on-disk store, whose results go through the
// write-ahead log as `goofi analyze`'s do. In first every pass is the
// campaign's first analysis, as `goofi analyze` after `goofi run` is: the
// store goes back to its image from before any analysis, and is
// checkpointed, outside the timing.
// In again every pass replaces the results of the one before, as each
// request for a daemon's results does, the store checkpointed between
// passes outside the timing. allocs/op over 6,000 is the pass's
// allocations per row: a count, not a time, which repeats for a given
// -cpu to within a few dozen.
func BenchmarkAnalyzeSort6000(b *testing.B) {
	const n = 6000
	db, err := sqldb.OpenAt(filepath.Join(b.TempDir(), "bench.db"), sqldb.SyncBarrier)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	st, err := campaign.NewStore(db)
	if err != nil {
		b.Fatal(err)
	}
	tsd := scifi.TargetSystemData("thor-board")
	if err := st.PutTargetSystem(tsd); err != nil {
		b.Fatal(err)
	}
	camp := sortCampaign("bench-analyze-sort", n, 1001, []string{"cpu"})
	runCampaign(b, st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, camp)
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	var unanalyzed bytes.Buffer
	if err := db.Save(&unanalyzed); err != nil {
		b.Fatal(err)
	}
	analyze := func(b *testing.B) {
		rep, err := analysis.AnalyzeAndStore(st, camp.Name)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Total != n {
			b.Fatalf("classified %d of %d", rep.Total, n)
		}
	}
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			analyze(b)
			b.StopTimer()
			if err := db.Load(bytes.NewReader(unanalyzed.Bytes())); err != nil {
				b.Fatal(err)
			}
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("again", func(b *testing.B) {
		analyze(b)
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			analyze(b)
			b.StopTimer()
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

// BenchmarkTriggers is experiment E8: the cost of reaching the injection
// point with each trigger kind (stepping with per-instruction predicates
// vs plain cycle counting).
func BenchmarkTriggers(b *testing.B) {
	prog := workload.Sort()
	specs := []trigger.Spec{
		{Kind: "cycle", Cycle: 1500},
		{Kind: "instret", Count: 300},
		{Kind: "branch", Occurrence: 25},
		{Kind: "rtc", Period: 640, Occurrence: 2},
	}
	for _, spec := range specs {
		b.Run(spec.Kind, func(b *testing.B) {
			img := mustAssemble(b, prog.Source)
			for i := 0; i < b.N; i++ {
				c := thor.New(thor.DefaultConfig())
				if err := c.LoadMemory(0, img); err != nil {
					b.Fatal(err)
				}
				tr, err := spec.Build()
				if err != nil {
					b.Fatal(err)
				}
				fired, _ := trigger.RunUntil(c, tr, 100_000)
				if !fired {
					b.Fatal("trigger never fired")
				}
			}
		})
	}
}

// BenchmarkScanChainExchange measures one full internal-chain
// read-modify-write through the TAP (the SCIFI injection primitive).
func BenchmarkScanChainExchange(b *testing.B) {
	tgt := scifi.New(thor.DefaultConfig())
	ctrl := tgt.Controller()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := ctrl.ReadInternal()
		if err != nil {
			b.Fatal(err)
		}
		v.Flip(i % v.Len())
		if err := ctrl.WriteInternal(v); err != nil {
			b.Fatal(err)
		}
	}
}

// closedLoopExperiment runs one cold closed-loop SCIFI experiment of
// pid-long's definition (bench/workloads.go): 1,000 iterations of
// pid-control against first-order-plant, a transient flip in bit i of a
// register the controller never uses, no checkpoint to restore — every
// cycle emulated and every iteration exchanged. It returns the cycles run.
func closedLoopExperiment(tb testing.TB, tgt *scifi.Target, camp *campaign.Campaign, i int) uint64 {
	tb.Helper()
	f, err := thor.ScanFieldByName("cpu.r9")
	if err != nil {
		tb.Fatal(err)
	}
	ex := &core.Experiment{
		Campaign: camp, Seq: 0, Name: "bench-closed-loop/exp",
		Fault:   &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{f.Offset + i%32}},
		Trigger: trigger.Spec{Kind: "cycle", Cycle: 1000},
	}
	if err := core.SCIFI.Run(tgt, ex); err != nil {
		tb.Fatal(err)
	}
	if out := ex.Result.Outcome; out.Status != campaign.OutcomeCompleted || out.Iterations != 1000 {
		tb.Fatalf("outcome %+v, want 1,000 completed iterations", out)
	}
	return ex.Result.Outcome.Cycles
}

func closedLoopCampaign() *campaign.Campaign {
	camp := pidCampaign("bench-closed-loop", 1, 1)
	camp.Termination = campaign.Termination{TimeoutCycles: 4_000_000, MaxIterations: 1000}
	return camp
}

// BenchmarkPIDClosedLoop measures that experiment. ns/cycle against
// thor.kernel_mcycles_per_s (the same image with empty ports and no
// exchange) is what the harness's model of the I/O bus costs; allocs/op is
// the exchange's.
func BenchmarkPIDClosedLoop(b *testing.B) {
	camp, tgt := closedLoopCampaign(), scifi.New(thor.DefaultConfig())
	var cycles uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles = closedLoopExperiment(b, tgt, camp, i)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/cycle")
	b.ReportMetric(float64(cycles), "cycles/op")
}

// TestClosedLoopBenchmarkShape pins what BenchmarkPIDClosedLoop divides
// by: the experiment is the 55,063 cycles every number quoted for it
// (DESIGN.md §11, CHANGES.md) was measured over, on a reused board too.
func TestClosedLoopBenchmarkShape(t *testing.T) {
	camp, tgt := closedLoopCampaign(), scifi.New(thor.DefaultConfig())
	for i := 0; i < 2; i++ {
		if cycles := closedLoopExperiment(t, tgt, camp, i); cycles != 55_063 {
			t.Errorf("run %d: %d cycles, want 55,063", i, cycles)
		}
	}
}

// BenchmarkSinkHandover measures what an experiment's row costs from the
// scheduler's hands to the store — the record built, LogExperiment, a
// cursor save every sixteen, the writer's encode, insert and barriers —
// through a BatchingSink over a file-backed WAL store, per row, for the two
// ways a row is handed over: a pruned experiment's ("the reference plus
// these bits") and an emulated one's (the marshaled final scan, which the
// encoder walks against the reference's). The reference is a real one,
// thor's 5,412-bit scan state.
func BenchmarkSinkHandover(b *testing.B) {
	tsd := scifi.TargetSystemData("thor-board")
	seedStore, err := campaign.NewStore(sqldb.Open())
	if err != nil {
		b.Fatal(err)
	}
	if err := seedStore.PutTargetSystem(tsd); err != nil {
		b.Fatal(err)
	}
	runCampaign(b, seedStore, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, sortCampaign("handover", 1, 1, []string{"cpu"}))
	refRec, err := seedStore.GetExperiment(campaign.ReferenceName("handover"))
	if err != nil {
		b.Fatal(err)
	}
	ref := campaign.NewReference(&refRec.State)
	var final bitvec.Vector
	if err := final.UnmarshalBinary(ref.State.Scan); err != nil {
		b.Fatal(err)
	}
	outcome := refRec.Data.Outcome
	record := func(i int) *campaign.ExperimentRecord {
		return &campaign.ExperimentRecord{Name: campaign.ExperimentName("handover", i), Campaign: "handover", Step: -1,
			Data: campaign.ExperimentData{Seq: i, Fault: faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{i % final.Len()}},
				Trigger: trigger.Spec{Kind: "cycle", Cycle: 700}, InjectionCycle: 700, Injected: true, Outcome: outcome},
			Ref: ref}
	}
	for _, kind := range []struct {
		name  string
		build func(i int) *campaign.ExperimentRecord
	}{
		{"pruned", func(i int) *campaign.ExperimentRecord {
			rec := record(i)
			rec.ScanDiff, rec.FromRef = []int{bitvec.MarshaledHeaderBits + i%final.Len()}, true
			return rec
		}},
		{"emulated", func(i int) *campaign.ExperimentRecord {
			rec := record(i)
			final.Flip(i % final.Len())
			scan, err := final.MarshalBinary()
			final.Flip(i % final.Len())
			if err != nil {
				b.Fatal(err)
			}
			rec.State = campaign.StateVector{Scan: scan, Memory: ref.State.Memory, Outputs: ref.State.Outputs}
			return rec
		}},
	} {
		b.Run(kind.name, func(b *testing.B) {
			db, err := sqldb.OpenAt(filepath.Join(b.TempDir(), "handover.db"), sqldb.SyncBarrier)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			st, err := campaign.NewStore(db)
			if err != nil {
				b.Fatal(err)
			}
			if err := st.PutTargetSystem(tsd); err != nil {
				b.Fatal(err)
			}
			if err := st.PutCampaign(sortCampaign("handover", 1, 1, []string{"cpu"})); err != nil {
				b.Fatal(err)
			}
			sink := campaign.NewBatchingSink(st, 0)
			if err := sink.LogExperiment(refRec); err != nil {
				b.Fatal(err)
			}
			var done campaign.SeqRanges
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sink.LogExperiment(kind.build(i)); err != nil {
					b.Fatal(err)
				}
				done = done.Add(i)
				if (i+1)%core.DefaultCheckpointInterval == 0 {
					if err := sink.SaveCheckpoint(&campaign.Checkpoint{Campaign: "handover", PlanHash: "h",
						Experiments: b.N, Reference: true, Ranges: slices.Clone(done)}); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := sink.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkThorNOPSled measures the emulator on what a derailed experiment
// runs: zeroed memory, which decodes as NOPs, from reset to the bad-address
// detection at the end of it — 49,152 cycles, 4,096 icache-line misses, no
// data access at all, so the fast path crosses line after line of zeros.
// one-run is a single RunFast; board-slices is the board's shape, RunFast
// of 4,096 cycles and ClearOutOfBudget until the detection, under the
// default watchdog.
func BenchmarkThorNOPSled(b *testing.B) {
	const cycles = 49_152
	for _, shape := range []struct {
		name  string
		slice uint64
	}{
		{"one-run", 1_000_000},
		{"board-slices", 4096},
	} {
		b.Run(shape.name, func(b *testing.B) {
			c := thor.New(thor.DefaultConfig())
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c.Reset()
				c.ClearMemory()
				b.StartTimer()
				st := c.RunFast(shape.slice)
				for st == thor.StatusOutOfBudget {
					if err := c.ClearOutOfBudget(); err != nil {
						b.Fatal(err)
					}
					st = c.RunFast(shape.slice)
				}
				if st != thor.StatusDetected || c.Cycle() != cycles {
					b.Fatalf("status %v after %d cycles, want a detection after %d", st, c.Cycle(), cycles)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cycles, "ns/cycle")
		})
	}
}

// BenchmarkCPUExecution measures raw THOR-S simulation speed.
func BenchmarkCPUExecution(b *testing.B) {
	img := mustAssemble(b, workload.Sort().Source)
	c := thor.New(thor.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c.Reset()
		c.ClearMemory()
		if err := c.LoadMemory(0, img); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if st := c.Run(1_000_000); st != thor.StatusHalted {
			b.Fatalf("status %v", st)
		}
	}
	b.ReportMetric(float64(c.Instret()), "instrs/op")
}

func mustAssemble(b *testing.B, source string) []byte {
	b.Helper()
	prog, err := asm.Assemble(source)
	if err != nil {
		b.Fatal(err)
	}
	return prog.Image
}
