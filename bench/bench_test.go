package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"goofi/internal/core"
	"goofi/internal/proctarget"
)

// The tracing wrappers must offer everything the scheduler may ask of a
// target or sink, or a traced run measures a different program.
var (
	_ core.TargetSystem           = (*tracedTarget)(nil)
	_ core.NondeterministicTarget = (*tracedTarget)(nil)
	_ core.Forwarder              = (*forwardingTarget)(nil)
	_ core.NondeterministicTarget = (*forwardingTarget)(nil)
	_ core.Forwarder              = (*calibratingTarget)(nil)
	_ core.ForwardCalibrator      = (*calibratingTarget)(nil)
	_ core.NondeterministicTarget = (*calibratingTarget)(nil)
	_ core.CheckpointSink         = (*tracedSink)(nil)
)

// The harness starts its own binary for the host-speed probe; under test
// that binary is this one.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "--host-probe" {
		if err := runProbeChild(os.Args[2]); err != nil {
			panic(err)
		}
		return
	}
	os.Exit(m.Run())
}

func TestTraceTargetKeepsCapabilities(t *testing.T) {
	for _, kind := range []string{"scifi", "proc"} {
		info, ok := core.LookupTarget(kind)
		if !ok {
			t.Fatalf("target %q not registered", kind)
		}
		inner, err := info.New(core.TargetConfig{})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		wrapped := traceTarget(inner, newSpanLog(), 0)
		_, innerFw := inner.(core.Forwarder)
		_, wrappedFw := wrapped.(core.Forwarder)
		_, innerCal := inner.(core.ForwardCalibrator)
		_, wrappedCal := wrapped.(core.ForwardCalibrator)
		if innerFw != wrappedFw || innerCal != wrappedCal {
			t.Errorf("%s: forwarder %v->%v, calibrator %v->%v", kind, innerFw, wrappedFw, innerCal, wrappedCal)
		}
		if core.TargetDeterministic(inner) != core.TargetDeterministic(wrapped) {
			t.Errorf("%s: wrapper changed the determinism declaration", kind)
		}
	}
}

func testEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

// A 200-experiment campaign stores the same rows and emulates the same
// cycles with and without the tracing wrappers.
func TestDecoratorTransparent(t *testing.T) {
	e := testEnv(t)
	w, err := findWorkload("sort-solo")
	if err != nil {
		t.Fatal(err)
	}
	run := func(traced bool) *scenario {
		p, err := prepare(e, w, 200, 7)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := runInProcess(p, e.victim, inprocOpts{traced: traced})
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.rows.conserved(); err != nil {
			t.Fatal(err)
		}
		return sc
	}
	traced, twin := run(true), run(false)
	res := &result{Correct: true}
	checkTransparent(res, traced, twin)
	if !res.Correct {
		t.Fatal(res.Problems)
	}
	if traced.sum.Forwarded != 200 || twin.sum.Forwarded != 200 {
		t.Errorf("forwarded %d traced, %d untraced, want 200 each: the wrapper must delegate core.Forwarder",
			traced.sum.Forwarded, twin.sum.Forwarded)
	}
	// 11 method spans per scifi experiment, 7 for the reference run.
	var methods int
	for _, s := range traced.log.spans {
		if s.op <= opReadMemory {
			methods++
		}
	}
	if want := 200*11 + 7; methods != want {
		t.Errorf("%d target spans, want %d", methods, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(v, n=4).
	cases := []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 12, 11, 15, 13}, [3]float64{10.5, 12, 14}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
				break
			}
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestTailPicksHighestSupportedPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	cases := []struct {
		n       int
		pct, at float64
	}{
		{12000, 99.9, 11988}, // 12 samples beyond
		{9999, 99, 9900},     // p99.9 would leave 9
		{752, 95, 715},       // p99 would leave 7
		{100, 90, 90},        // exactly 10 beyond
		{99, 50, 50},         // no candidate leaves 10: the median
	}
	for _, c := range cases {
		pct, at := tail(ramp(c.n))
		if pct != c.pct || at != c.at {
			t.Errorf("tail of %d samples = p%g at %g, want p%g at %g", c.n, pct, at, c.pct, c.at)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "m", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "m", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{100, 140, 70, 120, 85}
	scaled := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"within bound", lower, steady, scaled(steady, 1.05), verdictSame},
		{"lower got higher", lower, steady, scaled(steady, 1.2), verdictWorse},
		{"lower got lower", lower, steady, scaled(steady, 0.8), verdictBetter},
		{"higher got lower", higher, steady, scaled(steady, 0.8), verdictWorse},
		{"higher got higher", higher, steady, scaled(steady, 1.2), verdictBetter},
		{"noise hides a small change", lower, noisy, scaled(noisy, 1.2), verdictUnresolved},
		{"noisy but disjoint and worse", lower, noisy, scaled(noisy, 3), verdictWorse},
		{"noisy but disjoint and better", lower, noisy, scaled(noisy, 0.3), verdictBetter},
	}
	for _, c := range cases {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json at the repository root is the contract other tools
// read; the tables in metrics.go and workloads.go are what the harness
// runs. They must say the same.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has {%s %s}", i, file.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
}

// smokeScale sizes sort-solo at 200 experiments (pid-long 80,
// proc-matmul 8).
const smokeScale = 200.0 / 60000

// Every workload, untraced, through the real binaries at n around 200,
// with every output check on.
func TestSmokeUntraced(t *testing.T) {
	e := testEnv(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			if w.path == pathProc {
				if err := proctarget.Probe(e.victim); err != nil {
					t.Skipf("ptrace unavailable: %v", err)
				}
			}
			res, err := measureRun(e, w, 3, 0, smokeScale)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d problems=%v", res.Correct, res.Failed, res.Problems)
			}
			if len(res.Campaigns) != minCampaigns || res.Attempted != minCampaigns*res.N {
				t.Errorf("%d campaigns, attempted %d, n %d", len(res.Campaigns), res.Attempted, res.N)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name]; !(v.Value > 0) || v.Unit != d.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", d.Name, v, d.Unit)
				}
			}
		})
	}
}

// The traced side of each execution path, at smoke size.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced smoke runs the fixed-size kernels; skipped with -short")
	}
	e := testEnv(t)
	for _, name := range []string{"sort-solo", "sort-shard2", "proc-matmul"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			if w.path == pathProc {
				if err := proctarget.Probe(e.victim); err != nil {
					t.Skipf("ptrace unavailable: %v", err)
				}
			}
			res, err := traceRun(e, w, 3, smokeScale)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatal(res.Problems)
			}
			for _, d := range perLayer {
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
					t.Errorf("%s = %+v (present %v)", d.Name, v, ok)
				}
			}
			if _, err := os.Stat(filepath.Join(e.root, res.SpanFile)); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}
