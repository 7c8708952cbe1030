package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// runDefinitions are the campaign definitions of the benchmark's sort-solo
// workload (sort16, 6,000 experiments) and its pid-long one (the PID loop
// against its plant, 2,400 experiments), both at seed 1001 on one board:
// what BenchmarkRun runs at n experiments, and TestThorAllocsPerExperiment
// at lo and at n.
var runDefinitions = []struct {
	name   string
	define []string
	lo, n  int
}{
	{"sort-solo", []string{"-workload", "sort16", "-locations", "cpu", "-window", "10:1600",
		"-timeout", "100000", "-seed", "1001"}, 1200, 6000},
	{"pid-long", []string{"-workload", "pid-control", "-envsim", "first-order-plant",
		"-locations", "cpu,icache,dcache", "-window", "200:8000", "-timeout", "4000000",
		"-max-iterations", "1000", "-seed", "1001"}, 480, 2400},
}

// setUpRun configures and sets up a store of define's campaign "c" at n
// experiments in dir, and returns its files by extension, for each run to
// start from a copy of.
func setUpRun(tb testing.TB, dir string, define []string, n int) map[string][]byte {
	tb.Helper()
	base := filepath.Join(dir, "base"+strconv.Itoa(n)+".db")
	if err := run([]string{"configure", "-db", base, "-target", "thor-board"}); err != nil {
		tb.Fatal(err)
	}
	setup := append([]string{"setup", "-db", base, "-campaign", "c", "-experiments", strconv.Itoa(n)}, define...)
	if err := run(setup); err != nil {
		tb.Fatal(err)
	}
	files := map[string][]byte{}
	for _, ext := range []string{"", ".wal"} {
		if data, err := os.ReadFile(base + ext); err == nil {
			files[ext] = data
		} else if !os.IsNotExist(err) {
			tb.Fatal(err)
		}
	}
	return files
}

// copyRun writes files to a fresh store in dir and returns its path.
func copyRun(tb testing.TB, dir string, files map[string][]byte, i int) string {
	tb.Helper()
	db := filepath.Join(dir, "run"+strconv.Itoa(i)+".db")
	for ext, data := range files {
		if err := os.WriteFile(db+ext, data, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// quietStdout sends what the command prints to out until the returned
// function is called.
func quietStdout(tb testing.TB, out string) func() {
	tb.Helper()
	f, err := os.Create(out)
	if err != nil {
		tb.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	return func() {
		os.Stdout = stdout
		f.Close()
	}
}

// runMem runs the campaign in db and returns what the run allocated: the
// allocations and the bytes, across every goroutine of the process.
func runMem(tb testing.TB, db string) (mallocs, bytes uint64) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := run([]string{"run", "-db", db, "-campaign", "c", "-quiet"}); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// BenchmarkRun is one `goofi run` in this process of each of runDefinitions
// at n experiments. Configure, setup and the copy of the set-up store stay
// outside the timer, so -benchmem's B/op and allocs/op are the run's own:
// the reference run, the boards, the hand-over stage, the sink and the
// store's write path down to the log. allocs/exp and B/exp are the same
// over the campaign's experiments.
//
//	go test ./cmd/goofi/ -run xxx -bench BenchmarkRun -benchmem -count 5
func BenchmarkRun(b *testing.B) {
	for _, def := range runDefinitions {
		b.Run(def.name, func(b *testing.B) {
			dir := b.TempDir()
			defer quietStdout(b, os.DevNull)()
			files := setUpRun(b, dir, def.define, def.n)
			var mallocs, bytes uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := copyRun(b, dir, files, i)
				b.StartTimer()
				m, by := runMem(b, db)
				mallocs, bytes = mallocs+m, bytes+by
			}
			exps := float64(b.N) * float64(def.n)
			b.ReportMetric(float64(mallocs)/exps, "allocs/exp")
			b.ReportMetric(float64(bytes)/exps, "B/exp")
		})
	}
}

// TestThorAllocsPerExperiment pins what one more experiment allocates in a
// whole `goofi run` on the real target — the thor board, the boundary
// oracle and the environment simulator under the runner, the sink and the
// store's write path — as the slope of a run's allocations and bytes
// between runDefinitions' two sizes, each the least of three runs: how many
// rows are in flight when the boards need a record or a context depends on
// how the goroutines are scheduled, and that only ever adds. It logs
// how the larger campaign's experiments split into pruned and emulated
// ones. Before the per-experiment garbage was cut (ROADMAP item 3(b)) the
// slopes read 8.7 allocations and 2.15 KB on sort16 and 9.5 and 2.48 KB on
// the PID loop. Under the race detector the pools drop items at random, so
// the test skips; make tier1 runs it without.
func TestThorAllocsPerExperiment(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	bars := map[string]struct{ allocs, bytes float64 }{
		"sort-solo": {4, 1400},
		"pid-long":  {4, 1600},
	}
	for _, def := range runDefinitions {
		t.Run(def.name, func(t *testing.T) {
			dir := t.TempDir()
			out := filepath.Join(dir, "summary.txt")
			at := func(n int) (mallocs, bytes float64) {
				restore := quietStdout(t, out)
				defer restore()
				files := setUpRun(t, dir, def.define, n)
				for i := 0; i < 3; i++ {
					m, b := runMem(t, copyRun(t, dir, files, i))
					if i == 0 || float64(m) < mallocs {
						mallocs = float64(m)
					}
					if i == 0 || float64(b) < bytes {
						bytes = float64(b)
					}
				}
				return mallocs, bytes
			}
			m0, b0 := at(def.lo)
			m1, b1 := at(def.n)
			allocs, bytes := (m1-m0)/float64(def.n-def.lo), (b1-b0)/float64(def.n-def.lo)
			t.Logf("%.2f allocations and %.0f bytes an experiment; at n %d: %s", allocs, bytes, def.n, splitOf(t, out, def.n))
			bar := bars[def.name]
			if allocs > bar.allocs || bytes > bar.bytes {
				t.Errorf("%.2f allocations and %.0f bytes an experiment, want at most %.1f and %.0f",
					allocs, bytes, bar.allocs, bar.bytes)
			}
		})
	}
}

// TestThorRunAllocs pins what one whole `goofi run` of runDefinitions'
// pid-long definition allocates, the least of three runs. The slope
// TestThorAllocsPerExperiment gates cannot see a run's fixed cost — the
// reference run's checkpoints, join points and def-use table, and the
// boundary oracle's steady-state snapshots — which a 2,400-experiment
// campaign pays whole. Before those captures shared what did not change
// since the previous one and the tables grew by doubling, a run read
// ≈8,400 allocations and ≈6.4 MB. Under the race detector the pools drop
// items at random, so the test skips; make tier1 runs it without.
func TestThorRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const maxAllocs, maxBytes = 6900, 6_250_000
	def := runDefinitions[1]
	if def.name != "pid-long" {
		t.Fatalf("runDefinitions[1] is %s", def.name)
	}
	dir := t.TempDir()
	restore := quietStdout(t, filepath.Join(dir, "summary.txt"))
	files := setUpRun(t, dir, def.define, def.n)
	var mallocs, bytes uint64
	for i := 0; i < 3; i++ {
		m, b := runMem(t, copyRun(t, dir, files, i))
		if i == 0 || m < mallocs {
			mallocs = m
		}
		if i == 0 || b < bytes {
			bytes = b
		}
	}
	restore()
	t.Logf("a run of %d experiments: %d allocations, %d bytes", def.n, mallocs, bytes)
	if mallocs > maxAllocs || bytes > maxBytes {
		t.Errorf("a run of %d experiments made %d allocations of %d bytes, want at most %d and %d",
			def.n, mallocs, bytes, maxAllocs, maxBytes)
	}
}

// splitOf reads the pruned/emulated split of an n-experiment run off the
// summary a run printed to out.
func splitOf(t *testing.T, out string, n int) string {
	t.Helper()
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := strings.TrimSpace(sc.Text())
		// pruned: N experiments not emulated (L latent, O overwritten), ...
		if rest, ok := strings.CutPrefix(line, "pruned: "); ok {
			pruned, _, _ := strings.Cut(rest, " ")
			p, err := strconv.Atoi(pruned)
			if err != nil {
				t.Fatalf("summary line %q", line)
			}
			detail, _, _ := strings.Cut(rest, ", rows")
			return strconv.Itoa(n-p) + " emulated, " + detail
		}
	}
	return strconv.Itoa(n) + " emulated, none pruned"
}
