package main

// One invocation: a workload, a seed, a run length, traced or not.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"goofi/internal/campaign"
)

const (
	// minCampaigns is how many campaign seeds an untraced run measures
	// at least, however short --seconds is.
	minCampaigns = 3
	// extraSetups are set-up phases run and discarded before measuring,
	// so setup_s — milliseconds of process start-up — is taken from
	// enough samples to be steady.
	extraSetups = 8
	// oracleRows is how many plan slots of a solo thor campaign are
	// re-executed in process and compared byte for byte. The sharded
	// workload, whose claim is byte-identity with solo, compares all.
	oracleRows = 500
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// campaignID identifies what one measured campaign produced, so that
// runs of different workloads or commits can be compared afterwards.
type campaignID struct {
	Seed int64 `json:"seed"`
	// What this one campaign measured, as the clock read it, and how much
	// slower than the reference host the probes around it ran
	// (hostspeed.go) — so every run made is on record, unnormalised.
	ExpPerS         float64 `json:"exp_per_s_raw"`
	CPUPerKexp      float64 `json:"cpu_s_per_kexp_raw"`
	AnalyzeS        float64 `json:"analyze_s_raw"`
	CPUSlowdown     float64 `json:"host_cpu_slowdown"`
	BarrierSlowdown float64 `json:"host_barrier_slowdown"`

	Rows   string `json:"rows_sha256"`
	Report string `json:"report_sha256"`
	Plan   string `json:"plan_sha256,omitempty"`
}

// result is one invocation's outcome.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	N         int                    `json:"n"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Notes carries per-metric remarks: which percentile a tail is and
	// over how many samples.
	Notes     map[string]string `json:"notes,omitempty"`
	Campaigns []campaignID      `json:"campaigns,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
	SpanFile  string            `json:"span_file,omitempty"`
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) setMetrics(defs []metricDef, values map[string]float64) {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
}

// measureRun is the untraced side: campaigns through the real binaries,
// one at a time, until the run length is reached. Each campaign stands
// between two host probes, and its times enter the run's figures
// converted to the reference host's by what the two showed.
func measureRun(e *env, w *workload, seed int64, seconds, scale float64) (*result, error) {
	n := w.n(scale)
	res := &result{Workload: w.Name, Seed: seed, N: n, Correct: true}
	before, err := hostProbe(e)
	if err != nil {
		return nil, err
	}
	var extra []*prepared
	for i := 0; i < extraSetups; i++ {
		p, err := prepare(e, w, n, campaignSeed(seed, i))
		if err != nil {
			return nil, err
		}
		extra = append(extra, p)
		p.close()
		os.RemoveAll(p.dir)
	}
	after, err := hostProbe(e)
	if err != nil {
		return nil, err
	}
	var setups, cpuSlow, barrierSlow []float64
	host := between(before, after)
	for _, p := range extra {
		setups = append(setups, host.wall(p.setupS, p.setupCPUS))
	}

	var expPerS, cpuPerKexp, analyzeS, rssMB, diskPerExp, rawExpPerS []float64
	var first *prepared // kept for the oracle check, which is not measured
	var firstSample *sample
	start := time.Now()
	for i := 0; i < minCampaigns || time.Since(start).Seconds() < seconds; i++ {
		before = after
		p, err := prepare(e, w, n, campaignSeed(seed, i))
		if err != nil {
			return nil, err
		}
		s, err := p.measure(e)
		if err != nil {
			return nil, err
		}
		if after, err = hostProbe(e); err != nil {
			return nil, err
		}
		host := between(before, after)
		cpuSlow = append(cpuSlow, host.cpu)
		barrierSlow = append(barrierSlow, host.barrier)
		setups = append(setups, host.wall(s.setupS, s.setupCPUS))
		rawExpPerS = append(rawExpPerS, float64(n)/s.runS)
		expPerS = append(expPerS, float64(n)/host.wall(s.runS, s.run.cpuS))
		cpuPerKexp = append(cpuPerKexp, s.run.cpuS/host.cpu/float64(n)*1000)
		analyzeS = append(analyzeS, host.wall(s.analyzeS, s.analyzeCPUS))
		rssMB = append(rssMB, s.run.rssMB)
		diskPerExp = append(diskPerExp, float64(s.disk)/float64(n))

		res.Attempted += n
		res.Failed += s.rows.failed()
		res.Campaigns = append(res.Campaigns, campaignID{Seed: s.seed,
			ExpPerS: float64(n) / s.runS, CPUPerKexp: s.run.cpuS / float64(n) * 1000, AnalyzeS: s.analyzeS,
			CPUSlowdown: host.cpu, BarrierSlowdown: host.barrier,
			Rows: s.rows.hash(n), Report: s.reportHash, Plan: s.planHash})
		if err := s.rows.conserved(); err != nil {
			res.problem("seed %d: conservation: %v", s.seed, err)
		}
		if i == 0 {
			first, firstSample = p, s
			continue
		}
		os.RemoveAll(p.dir)
	}
	if err := checkAgainstOracle(e, first, firstSample, res); err != nil {
		return nil, err
	}
	res.setMetrics(endToEnd, map[string]float64{
		"exp_per_s":          median(expPerS),
		"cpu_s_per_kexp":     median(cpuPerKexp),
		"analyze_s":          median(analyzeS),
		"setup_s":            median(setups),
		"peak_rss_mb":        median(rssMB),
		"disk_bytes_per_exp": median(diskPerExp),
	})
	res.Notes = map[string]string{
		"exp_per_s": fmt.Sprintf("median of %d campaigns of n=%d on the reference host; as the clock read it %.6g, the host computing %.2fx and acknowledging barriers %.2fx slower than the reference",
			len(expPerS), n, median(rawExpPerS), median(cpuSlow), median(barrierSlow)),
		"setup_s": fmt.Sprintf("median of %d set-ups", len(setups)),
	}
	return res, nil
}

// checkAgainstOracle re-executes (part of) a measured campaign in
// process, on an in-memory store, and compares what the binaries stored
// with it. For the nondeterministic proc target the comparable artifact
// is the plan hash, and the outcome histogram must show both a masked
// and a non-masked class.
func checkAgainstOracle(e *env, p *prepared, s *sample, res *result) error {
	hi := oracleRows
	switch p.w.path {
	case pathShard2:
		hi = 0
	case pathProc:
		hi = 1
	}
	if hi > p.n {
		hi = 0
	}
	oracle, err := runInProcess(p, e.victim, inprocOpts{oracle: true, hi: hi})
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if p.w.path == pathProc {
		if s.planHash == "" || s.planHash != oracle.sum.PlanHash {
			res.problem("seed %d: plan hash %q from goofi run, %q from an in-process rerun",
				s.seed, s.planHash, oracle.sum.PlanHash)
		}
		masked := s.rows.classes[campaign.OutcomeMasked]
		if masked == 0 || masked == s.rows.valid {
			res.problem("seed %d: outcome histogram %v lacks a masked or a non-masked class",
				s.seed, s.rows.classes)
		}
		return nil
	}
	k := oracle.n
	if got, want := s.rows.hash(k), oracle.rows.hash(k); got != want {
		res.problem("seed %d: first %d rows differ from the in-process oracle (%s vs %s)",
			s.seed, k, got[:12], want[:12])
	}
	if hi == 0 && digest(oracle.report) != s.reportHash {
		res.problem("seed %d: analysis report differs from the in-process oracle", s.seed)
	}
	return nil
}

// soloVariant is the workload whose definition an in-process solo
// scenario uses: sort-shard2 runs sort-solo's campaign.
func soloVariant(w *workload) *workload {
	if w.path != pathShard2 {
		return w
	}
	v := *w
	v.path = pathSolo
	return &v
}

// preparedSolo sets up a solo-path database holding w's campaign.
func preparedSolo(e *env, w *workload, n int, seed int64) (*prepared, error) {
	return prepare(e, soloVariant(w), n, seed)
}

// traceRun is the traced side: the workload's in-process scenario with
// its untraced twin, the size-scaling probe, the transport run, one
// sharded run through the binaries for the CPU split, and the kernels.
func traceRun(e *env, w *workload, seed int64, scale float64) (*result, error) {
	n := w.n(scale)
	cseed := campaignSeed(seed, 0)
	res := &result{Workload: w.Name, Seed: seed, N: n, Correct: true}
	in := &layerInput{}
	sharded := w.path == pathShard2
	hp, err := hostProbe(e)
	if err != nil {
		return nil, err
	}
	in.hostProbeS = append(in.hostProbeS, hp.workS)

	// The solo scenario and its twin. A shard worker executes its half of
	// the plan just like this, so on sort-shard2 the scenario is one
	// worker's range.
	opts := inprocOpts{traced: true, records: true}
	if sharded {
		opts.hi = (n + 1) / 2
	}
	solo := func(o inprocOpts) (*scenario, error) {
		p, err := preparedSolo(e, w, n, cseed)
		if err != nil {
			return nil, err
		}
		return runInProcess(p, e.victim, o)
	}
	if in.solo, err = solo(opts); err != nil {
		return nil, err
	}
	opts.traced, opts.records = false, false
	if in.twin, err = solo(opts); err != nil {
		return nil, err
	}
	res.Attempted += in.solo.n + in.twin.n
	res.Failed += in.solo.sum.InvalidRuns + in.twin.sum.InvalidRuns
	checkTransparent(res, in.solo, in.twin)

	// The sharded run: the workload itself here, a transport kernel at a
	// fifth of sort-shard2's size on the other workloads.
	shardW, _ := findWorkload("sort-shard2")
	shardN := shardW.n(scale) / 5
	if sharded {
		shardN = n
	}
	if shardN < 2 {
		shardN = 2
	}
	shardedRun := func(traced bool) (*shardScenario, error) {
		p, err := preparedSolo(e, shardW, shardN, cseed)
		if err != nil {
			return nil, err
		}
		return runShardedInProcess(e, p, traced)
	}
	if in.sharded, err = shardedRun(sharded); err != nil {
		return nil, err
	}
	if err := in.sharded.back.rows.conserved(); err != nil {
		res.problem("in-process sharded run: conservation: %v", err)
	}
	if sharded {
		if in.shardedTwin, err = shardedRun(false); err != nil {
			return nil, err
		}
		res.Attempted += 2 * shardN
		if a, b := in.sharded.back.rows.hash(n), in.shardedTwin.back.rows.hash(n); a != b {
			res.problem("traced and untraced sharded runs stored different rows (%s vs %s)", a[:12], b[:12])
		}
	}
	realP, err := prepare(e, shardW, shardN, cseed)
	if err != nil {
		return nil, err
	}
	if in.real, err = realP.measure(e); err != nil {
		return nil, err
	}
	if a, b := in.real.rows.hash(shardN), in.sharded.back.rows.hash(shardN); a != b {
		res.problem("sharded rows differ between the binaries and the in-process run (%s vs %s)", a[:12], b[:12])
	}

	// The cursor size-scaling probe: sort-solo's campaign at two sizes.
	sortW, _ := findWorkload("sort-solo")
	probe := func(size int) (*scenario, error) {
		size = int(float64(size)*scale/defaultScale + 0.5)
		if size < 16 {
			size = 16
		}
		p, err := preparedSolo(e, sortW, size, cseed)
		if err != nil {
			return nil, err
		}
		return runInProcess(p, e.victim, inprocOpts{traced: true})
	}
	if in.probeSmall, err = probe(probeSmall); err != nil {
		return nil, err
	}
	if in.probeLarge, err = probe(probeLarge); err != nil {
		return nil, err
	}

	if in.thorMcyclesPerS, in.snapshotUS, in.restoreUS, err = thorKernel(); err != nil {
		return nil, err
	}
	kdir, err := e.dir("kernel")
	if err != nil {
		return nil, err
	}
	if in.barrierMS, in.encodeInsertUS, err = storeKernels(kdir, in.solo); err != nil {
		return nil, err
	}

	if hp, err = hostProbe(e); err != nil {
		return nil, err
	}
	in.hostProbeS = append(in.hostProbeS, hp.workS)
	values, notes := layerMetrics(in, sharded)
	res.setMetrics(perLayer, values)
	res.Notes = notes

	// Spans are written with the results.
	log := in.solo.log
	if sharded {
		log = in.sharded.log
	}
	traceDir := filepath.Join(e.root, buildDir, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	res.SpanFile = filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.spans.jsonl", w.Name, seed))
	if err := log.write(filepath.Join(e.root, res.SpanFile)); err != nil {
		return nil, err
	}
	return res, nil
}

// checkTransparent asserts that the tracing decorators changed nothing:
// a deterministic target stores identical rows and emulates identical
// cycles with and without them; the nondeterministic one draws the same
// plan.
func checkTransparent(res *result, traced, twin *scenario) {
	if traced.sum.PlanHash != twin.sum.PlanHash {
		res.problem("traced and untraced runs drew different plans")
	}
	if !traced.sum.Deterministic {
		return
	}
	k := traced.n
	if a, b := traced.rows.hash(k), twin.rows.hash(k); a != b {
		res.problem("traced and untraced runs stored different rows (%s vs %s)", a[:12], b[:12])
	}
	if a, b := traced.delta["goofi_scheduler_cycles_emulated_total"],
		twin.delta["goofi_scheduler_cycles_emulated_total"]; a != b {
		res.problem("traced run emulated %v cycles, untraced %v", a, b)
	}
}
