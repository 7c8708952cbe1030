// Command goofi-experiments regenerates the tables of EXPERIMENTS.md: one
// experiment per paper artifact (figures F1–F7 are covered by the test
// suite; the quantitative experiments E1–E8 are produced here). Run all:
//
//	go run ./cmd/goofi-experiments
//
// or a single experiment:
//
//	go run ./cmd/goofi-experiments -e E3
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/asm"
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

func main() {
	which := flag.String("e", "", "experiment to run (E1..E8); empty runs all")
	n := flag.Int("n", 200, "experiments per campaign")
	seed := flag.Int64("seed", 2003, "base seed")
	flag.Parse()
	all := []struct {
		name string
		fn   func(n int, seed int64) error
	}{
		{"E1", e1}, {"E2", e2}, {"E3", e3}, {"E4", e4}, {"E5", e5},
		{"E6", e6}, {"E7", e7}, {"E8", e8}, {"E9", e9}, {"E10", e10},
	}
	for _, e := range all {
		if *which != "" && !strings.EqualFold(*which, e.name) {
			continue
		}
		fmt.Printf("==== %s ====\n", e.name)
		if err := e.fn(*n, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "goofi-experiments: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

// newStore creates a store with the SCIFI target registered.
func newStore() (*campaign.Store, *campaign.TargetSystemData, error) {
	st, err := campaign.NewStore(sqldb.Open())
	if err != nil {
		return nil, nil, err
	}
	tsd := scifi.TargetSystemData("thor-board")
	if err := st.PutTargetSystem(tsd); err != nil {
		return nil, nil, err
	}
	return st, tsd, nil
}

// execute stores and runs a campaign on a target, returning the analysis.
func execute(st *campaign.Store, tsd *campaign.TargetSystemData,
	tgt core.TargetSystem, alg core.Algorithm, camp *campaign.Campaign,
	opts ...core.RunnerOption) (*analysis.Report, *core.Summary, error) {
	if err := st.PutCampaign(camp); err != nil {
		return nil, nil, err
	}
	opts = append(opts, core.WithSink(st))
	r, err := core.NewRunner(tgt, alg, camp, tsd, opts...)
	if err != nil {
		return nil, nil, err
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		return nil, nil, err
	}
	rep, err := analysis.AnalyzeAndStore(st, camp.Name)
	if err != nil {
		return nil, nil, err
	}
	return rep, sum, nil
}

func pidCampaign(name string, n int, seed int64, locations []string) *campaign.Campaign {
	return &campaign.Campaign{
		Name:           name,
		TargetName:     "thor-board",
		ChainName:      "internal",
		Locations:      locations,
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient},
		Trigger:        trigger.Spec{Kind: "cycle"},
		RandomWindow:   [2]uint64{200, 8000},
		NumExperiments: n,
		Seed:           seed,
		Termination:    campaign.Termination{TimeoutCycles: 400_000, MaxIterations: 80},
		Workload:       workload.PID(),
		EnvSim:         &campaign.EnvSimSpec{Name: "first-order-plant"},
		LogMode:        campaign.LogNormal,
	}
}

func sortCampaign(name string, n int, seed int64, locations []string) *campaign.Campaign {
	return &campaign.Campaign{
		Name:           name,
		TargetName:     "thor-board",
		ChainName:      "internal",
		Locations:      locations,
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

func e1(n int, seed int64) error {
	fmt.Println("E1: SCIFI transient bit-flip campaign on the PID control application")
	fmt.Println("    (paper §3.4 outcome taxonomy; fault space = CPU registers + caches)")
	st, tsd, err := newStore()
	if err != nil {
		return err
	}
	camp := pidCampaign("e1", n, seed, []string{"cpu", "icache", "dcache"})
	camp.Workload.OutputTail = 10
	camp.Workload.OutputTolerance = 512
	camp.Workload.ResultTolerance = 512
	rep, _, err := execute(st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, camp)
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	return nil
}

func e2(n int, seed int64) error {
	fmt.Println("E2: normal vs detail logging mode (paper §3.3)")
	if n > 40 {
		n = 40 // detail mode logs per instruction; keep it bounded
	}
	run := func(mode campaign.LogMode) (*analysis.Report, time.Duration, int, error) {
		st, tsd, err := newStore()
		if err != nil {
			return nil, 0, 0, err
		}
		camp := sortCampaign("e2-"+string(mode), n, seed, []string{"cpu"})
		camp.Termination.TimeoutCycles = 30_000
		camp.LogMode = mode
		start := time.Now()
		rep, _, err := execute(st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, camp)
		if err != nil {
			return nil, 0, 0, err
		}
		elapsed := time.Since(start)
		traceRows := 0
		if mode == campaign.LogDetail {
			tr, err := st.Trace(campaign.ExperimentName(camp.Name, 0))
			if err != nil {
				return nil, 0, 0, err
			}
			traceRows = len(tr)
		}
		return rep, elapsed, traceRows, nil
	}
	normal, tNormal, _, err := run(campaign.LogNormal)
	if err != nil {
		return err
	}
	detail, tDetail, rows, err := run(campaign.LogDetail)
	if err != nil {
		return err
	}
	fmt.Printf("  normal mode: %8.1f ms for %d experiments\n", float64(tNormal.Microseconds())/1000, n)
	fmt.Printf("  detail mode: %8.1f ms for %d experiments (%d trace rows for exp 0)\n",
		float64(tDetail.Microseconds())/1000, n, rows)
	fmt.Printf("  time overhead factor: %.1fx\n", float64(tDetail)/float64(tNormal))
	same := true
	for _, c := range analysis.AllClasses() {
		if normal.Counts[c] != detail.Counts[c] {
			same = false
		}
	}
	fmt.Printf("  identical classification in both modes: %v\n", same)
	return nil
}

func e3(n int, seed int64) error {
	fmt.Println("E3: SCIFI vs pre-runtime SWIFI on the sort workload ([10] shape)")
	fmt.Println("    SCIFI reaches registers and cache state; SWIFI reaches only the memory image")

	// SCIFI campaign over CPU + caches.
	stS, tsdS, err := newStore()
	if err != nil {
		return err
	}
	scifiCamp := sortCampaign("e3-scifi", n, seed, []string{"cpu", "icache", "dcache"})
	scifiRep, _, err := execute(stS, tsdS, scifi.New(thor.DefaultConfig()), core.SCIFI, scifiCamp)
	if err != nil {
		return err
	}

	// SWIFI campaign over the memory image.
	stW, err := campaign.NewStore(sqldb.Open())
	if err != nil {
		return err
	}
	imgSize, err := asm.ImageSize(workload.Sort().Source)
	if err != nil {
		return err
	}
	tsdW := swifi.TargetSystemData("thor-swifi", imgSize)
	if err := stW.PutTargetSystem(tsdW); err != nil {
		return err
	}
	swifiCamp := sortCampaign("e3-swifi", n, seed, []string{"mem"})
	swifiCamp.TargetName = "thor-swifi"
	swifiCamp.ChainName = swifi.MemoryChainName
	swifiCamp.RandomWindow = [2]uint64{} // pre-runtime: no injection time
	swifiCamp.Trigger = trigger.Spec{Kind: "cycle", Cycle: 0}
	swifiRep, _, err := execute(stW, tsdW, swifi.New(thor.DefaultConfig()),
		core.PreRuntimeSWIFI, swifiCamp)
	if err != nil {
		return err
	}

	fmt.Printf("  %-14s %10s %10s\n", "class", "SCIFI", "SWIFI")
	for _, c := range analysis.AllClasses() {
		fmt.Printf("  %-14s %5d %3.0f%% %5d %3.0f%%\n", string(c),
			scifiRep.Counts[c], 100*scifiRep.Fraction(c),
			swifiRep.Counts[c], 100*swifiRep.Fraction(c))
	}
	fmt.Printf("  coverage       %10s %10s\n",
		fmt.Sprintf("%.2f", scifiRep.Coverage.P), fmt.Sprintf("%.2f", swifiRep.Coverage.P))
	mechs := func(r *analysis.Report) string {
		var ms []string
		for m := range r.Mechanisms {
			ms = append(ms, m)
		}
		sort.Strings(ms)
		return strings.Join(ms, ", ")
	}
	fmt.Printf("  SCIFI mechanisms: %s\n", mechs(scifiRep))
	fmt.Printf("  SWIFI mechanisms: %s\n", mechs(swifiRep))
	return nil
}

func e4(n int, seed int64) error {
	fmt.Println("E4: executable assertions + best-effort recovery ([12] shape)")
	st, tsd, err := newStore()
	if err != nil {
		return err
	}
	run := func(name string, wl campaign.WorkloadSpec) (*analysis.Report, error) {
		camp := pidCampaign(name, n, seed, []string{"cpu"})
		wl.OutputTail = 10
		wl.OutputTolerance = 512
		wl.ResultTolerance = 512
		camp.Workload = wl
		camp.EnvSim = &campaign.EnvSimSpec{Name: "engine"}
		camp.Termination.MaxIterations = 100
		rep, _, err := execute(st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, camp)
		return rep, err
	}
	bare, err := run("e4-bare", workload.PID())
	if err != nil {
		return err
	}
	hardened, err := run("e4-hardened", workload.PIDAssert())
	if err != nil {
		return err
	}
	fmt.Printf("  %-22s %8s %8s\n", "", "bare", "hardened")
	fmt.Printf("  %-22s %8d %8d\n", "critical (escaped)",
		bare.Counts[analysis.ClassEscaped], hardened.Counts[analysis.ClassEscaped])
	fmt.Printf("  %-22s %8d %8d\n", "detected",
		bare.Counts[analysis.ClassDetected], hardened.Counts[analysis.ClassDetected])
	fmt.Printf("  %-22s %8d %8d\n", "recoveries", bare.Recovered, hardened.Recovered)
	if hardened.Counts[analysis.ClassEscaped] > 0 {
		fmt.Printf("  critical-failure reduction factor: %.2fx\n",
			float64(bare.Counts[analysis.ClassEscaped])/float64(hardened.Counts[analysis.ClassEscaped]))
	}
	return nil
}

func e5(n int, seed int64) error {
	fmt.Println("E5: pre-injection analysis efficiency (paper §4 extension)")
	st, tsd, err := newStore()
	if err != nil {
		return err
	}
	regs := make([]string, 0, thor.NumRegs)
	for i := 0; i < thor.NumRegs; i++ {
		regs = append(regs, fmt.Sprintf("cpu.r%d", i))
	}
	plainCamp := sortCampaign("e5-plain", n, seed, regs)
	plainRep, plainSum, err := execute(st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, plainCamp)
	if err != nil {
		return err
	}
	filtCamp := sortCampaign("e5-filtered", n, seed, regs)
	liveness, err := preinject.AnalyzeWorkload(thor.DefaultConfig(), filtCamp)
	if err != nil {
		return err
	}
	filtRep, filtSum, err := execute(st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, filtCamp,
		core.WithInjectionFilter(liveness.Filter()))
	if err != nil {
		return err
	}
	fmt.Printf("  live (register, time) fraction: %.0f%%\n", 100*liveness.LiveFraction(50))
	fmt.Printf("  %-22s %8s %10s\n", "", "plain", "filtered")
	fmt.Printf("  %-22s %8d %10d\n", "skipped draws", plainSum.Skipped, filtSum.Skipped)
	fmt.Printf("  %-22s %8d %10d\n", "overwritten",
		plainRep.Counts[analysis.ClassOverwritten], filtRep.Counts[analysis.ClassOverwritten])
	fmt.Printf("  %-22s %8.3f %10.3f\n", "effective rate",
		plainRep.EffectiveRate.P, filtRep.EffectiveRate.P)
	if plainRep.EffectiveRate.P > 0 {
		fmt.Printf("  effective-yield improvement: %.1fx\n",
			filtRep.EffectiveRate.P/plainRep.EffectiveRate.P)
	}
	return nil
}

func e6(n int, seed int64) error {
	fmt.Println("E6: fault model comparison (paper §4: intermittent and permanent models)")
	st, tsd, err := newStore()
	if err != nil {
		return err
	}
	models := []faultmodel.Spec{
		{Kind: faultmodel.Transient},
		{Kind: faultmodel.Intermittent, ActiveProb: 0.3},
		{Kind: faultmodel.StuckAt0},
		{Kind: faultmodel.StuckAt1},
	}
	var labels []string
	var reps []*analysis.Report
	for _, m := range models {
		camp := sortCampaign("e6-"+string(m.Kind), n, seed, []string{"cpu"})
		camp.FaultModel = m
		rep, _, err := execute(st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, camp)
		if err != nil {
			return err
		}
		labels = append(labels, string(m.Kind))
		reps = append(reps, rep)
	}
	fmt.Printf("  %-14s", "class")
	for _, l := range labels {
		fmt.Printf(" %14s", l)
	}
	fmt.Println()
	for _, c := range analysis.AllClasses() {
		fmt.Printf("  %-14s", string(c))
		for _, r := range reps {
			fmt.Printf(" %6d (%4.1f%%)", r.Counts[c], 100*r.Fraction(c))
		}
		fmt.Println()
	}
	fmt.Printf("  %-14s", "effective")
	for _, r := range reps {
		fmt.Printf(" %13.3f ", r.EffectiveRate.P)
	}
	fmt.Println()
	return nil
}

func e7(n int, seed int64) error {
	fmt.Println("E7: database round trip and logging throughput (portability, paper §1)")
	st, tsd, err := newStore()
	if err != nil {
		return err
	}
	camp := sortCampaign("e7", minInt(n, 50), seed, []string{"cpu"})
	rep, _, err := execute(st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, camp)
	if err != nil {
		return err
	}
	// Persist, reload, re-analyze: identical report.
	path := os.TempDir() + "/goofi-e7.db"
	defer os.Remove(path)
	if err := st.DB().SaveFile(path); err != nil {
		return err
	}
	db2 := sqldb.Open()
	if err := db2.LoadFile(path); err != nil {
		return err
	}
	st2, err := campaign.NewStore(db2)
	if err != nil {
		return err
	}
	rep2, err := analysis.AnalyzeAndStore(st2, "e7")
	if err != nil {
		return err
	}
	same := true
	for _, c := range analysis.AllClasses() {
		if rep.Counts[c] != rep2.Counts[c] {
			same = false
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("  experiments logged:  %d (+reference)\n", rep.Total)
	fmt.Printf("  database file size:  %d bytes\n", fi.Size())
	fmt.Printf("  reload + re-analysis identical: %v\n", same)

	// Raw LoggedSystemState insert throughput.
	db3 := sqldb.Open()
	st3, err := campaign.NewStore(db3)
	if err != nil {
		return err
	}
	if err := st3.PutTargetSystem(tsd); err != nil {
		return err
	}
	if err := st3.PutCampaign(camp); err != nil {
		return err
	}
	const rows = 2000
	start := time.Now()
	for i := 0; i < rows; i++ {
		rec := &campaign.ExperimentRecord{
			Name:     fmt.Sprintf("e7/bench%06d", i),
			Campaign: "e7",
			Step:     -1,
			Data:     campaign.ExperimentData{Seq: i, Outcome: campaign.Outcome{Status: campaign.OutcomeCompleted}},
			State:    campaign.StateVector{Memory: map[string][]byte{"x": {1, 2, 3, 4}}},
		}
		if err := st3.LogExperiment(rec); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("  LoggedSystemState insert rate: %.0f rows/s\n",
		rows/elapsed.Seconds())
	return nil
}

func e8(n int, seed int64) error {
	fmt.Println("E8: fault triggers select distinct injection points (paper §4 extension)")
	st, tsd, err := newStore()
	if err != nil {
		return err
	}
	prog := workload.Sort()
	// The data-access trigger watches the first store to the checksum
	// word; resolve its address by assembling the workload host-side.
	asmProg, err := asmWorkload(prog.Source)
	if err != nil {
		return err
	}
	specs := []trigger.Spec{
		{Kind: "cycle", Cycle: 1500},
		{Kind: "instret", Count: 300},
		{Kind: "branch", Occurrence: 25},
		{Kind: "data-access", Addr: asmProg["checksum"], Write: true},
		{Kind: "rtc", Period: 640, Occurrence: 2},
	}
	if n > 60 {
		n = 60
	}
	fmt.Printf("  %-26s %10s %10s %10s\n", "trigger", "min cycle", "mean", "max")
	for _, spec := range specs {
		camp := sortCampaign("e8-"+spec.Kind, n, seed, []string{"cpu"})
		camp.Trigger = spec
		camp.RandomWindow = [2]uint64{}
		camp.Workload = prog
		_, _, err := execute(st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, camp)
		if err != nil {
			return err
		}
		recs, err := st.Experiments(camp.Name)
		if err != nil {
			return err
		}
		var minC, maxC, sum uint64
		minC = ^uint64(0)
		cnt := 0
		for _, rec := range recs {
			if rec.IsReference() || !rec.Data.Injected {
				continue
			}
			c := rec.Data.InjectionCycle
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
			sum += c
			cnt++
		}
		if cnt == 0 {
			fmt.Printf("  %-26s (never fired)\n", spec.Kind)
			continue
		}
		fmt.Printf("  %-26s %10d %10d %10d\n",
			fmt.Sprintf("%s", triggerLabel(spec)), minC, sum/uint64(cnt), maxC)
	}
	return nil
}

func e9(n int, seed int64) error {
	fmt.Println("E9: error detection mechanism ablation (design-choice sensitivity)")
	fmt.Println("    same register campaign against THOR-S variants with EDMs removed")
	type variant struct {
		name string
		cfg  thor.Config
	}
	full := thor.DefaultConfig()
	noOvf := full
	noOvf.TrapOnOverflow = false
	noWD := full
	noWD.WatchdogLimit = 0
	noCache := full
	noCache.DisableCaches = true
	variants := []variant{
		{"full", full},
		{"no-overflow-trap", noOvf},
		{"no-watchdog", noWD},
		{"no-caches(parity)", noCache},
	}
	fmt.Printf("  %-20s %9s %9s %9s %10s  %s\n",
		"variant", "detected", "escaped", "latent", "coverage", "mechanisms")
	for _, v := range variants {
		st, tsd, err := newStore()
		if err != nil {
			return err
		}
		camp := sortCampaign("e9-"+v.name, n, seed, []string{"cpu", "icache", "dcache"})
		if v.cfg.DisableCaches {
			// Without caches every access pays the miss penalty, so the
			// run is ~8x longer; scale the injection window to cover the
			// same fraction of the execution.
			camp.RandomWindow = [2]uint64{80, 12800}
		}
		rep, _, err := execute(st, tsd, scifi.New(v.cfg), core.SCIFI, camp)
		if err != nil {
			return err
		}
		var ms []string
		for m := range rep.Mechanisms {
			ms = append(ms, m)
		}
		sort.Strings(ms)
		fmt.Printf("  %-20s %9d %9d %9d %10.3f  %s\n", v.name,
			rep.Counts[analysis.ClassDetected], rep.Counts[analysis.ClassEscaped],
			rep.Counts[analysis.ClassLatent], rep.Coverage.P, strings.Join(ms, ","))
	}

	// Part 2: register-only faults in the arithmetic-heavy PID loop,
	// where the overflow trap and the watchdog are the relevant EDMs.
	fmt.Println("  -- register faults, PID control loop --")
	fmt.Printf("  %-20s %9s %9s %10s  %s\n", "variant", "detected", "escaped", "coverage", "mechanisms")
	for _, v := range variants {
		st, tsd, err := newStore()
		if err != nil {
			return err
		}
		camp := pidCampaign("e9b-"+v.name, n, seed, []string{"cpu"})
		if v.cfg.DisableCaches {
			camp.RandomWindow = [2]uint64{1600, 64000}
			camp.Termination.TimeoutCycles = 3_200_000
		}
		rep, _, err := execute(st, tsd, scifi.New(v.cfg), core.SCIFI, camp)
		if err != nil {
			return err
		}
		var ms []string
		for m := range rep.Mechanisms {
			ms = append(ms, m)
		}
		sort.Strings(ms)
		fmt.Printf("  %-20s %9d %9d %10.3f  %s\n", v.name,
			rep.Counts[analysis.ClassDetected], rep.Counts[analysis.ClassEscaped],
			rep.Coverage.P, strings.Join(ms, ","))
	}
	return nil
}

func e10(n int, seed int64) error {
	fmt.Println("E10: software triple modular redundancy (time redundancy + majority vote)")
	fmt.Println("     register bit-flips into a plain vs a TMR-hardened checksum")
	run := func(name string, wl campaign.WorkloadSpec, window [2]uint64) (*analysis.Report, error) {
		st, tsd, err := newStore()
		if err != nil {
			return nil, err
		}
		camp := &campaign.Campaign{
			Name:           name,
			TargetName:     "thor-board",
			ChainName:      "internal",
			Locations:      []string{"cpu.r1", "cpu.r2", "cpu.r3", "cpu.r4"}, // the compute registers
			FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient},
			Trigger:        trigger.Spec{Kind: "cycle"},
			RandomWindow:   window,
			NumExperiments: n,
			Seed:           seed,
			Termination:    campaign.Termination{TimeoutCycles: 50_000},
			Workload:       wl,
			LogMode:        campaign.LogNormal,
		}
		rep, _, err := execute(st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, camp)
		return rep, err
	}
	// Inject across each variant's whole computation (the TMR run is ~3x
	// longer, so its window scales to keep the per-cycle fault rate).
	plain, err := run("e10-plain", workload.Checksum(), [2]uint64{10, 380})
	if err != nil {
		return err
	}
	tmr, err := run("e10-tmr", workload.ChecksumTMR(), [2]uint64{10, 1080})
	if err != nil {
		return err
	}
	fmt.Printf("  %-26s %8s %8s\n", "", "plain", "TMR")
	row := func(label string, a, b int) { fmt.Printf("  %-26s %8d %8d\n", label, a, b) }
	row("escaped (wrong result)", plain.Counts[analysis.ClassEscaped], tmr.Counts[analysis.ClassEscaped])
	row("detected", plain.Counts[analysis.ClassDetected], tmr.Counts[analysis.ClassDetected])
	row("latent", plain.Counts[analysis.ClassLatent], tmr.Counts[analysis.ClassLatent])
	row("overwritten", plain.Counts[analysis.ClassOverwritten], tmr.Counts[analysis.ClassOverwritten])
	if tmr.Counts[analysis.ClassEscaped] > 0 {
		fmt.Printf("  escape reduction factor: %.1fx\n",
			float64(plain.Counts[analysis.ClassEscaped])/float64(tmr.Counts[analysis.ClassEscaped]))
	} else if plain.Counts[analysis.ClassEscaped] > 0 {
		fmt.Println("  escape reduction factor: inf (TMR masked every wrong result)")
	}
	return nil
}

func asmWorkload(source string) (map[string]uint32, error) {
	prog, err := asm.Assemble(source)
	if err != nil {
		return nil, err
	}
	return prog.Symbols, nil
}

func triggerLabel(s trigger.Spec) string {
	t, err := s.Build()
	if err != nil {
		return s.Kind
	}
	return t.Name()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
