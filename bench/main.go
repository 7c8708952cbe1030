// Command bench is goofi's benchmark: the single load-generating process
// that builds the real binaries from the checkout it stands in, drives
// campaigns through them one at a time, and prints every metric by name.
//
//	sh bench/run.sh --workload sort-solo --seed 1 --seconds 15 --trace 0
//	sh bench/run.sh --workload sort-solo --seed 1 --seconds 15 --trace 1
//	sh bench/run.sh --suite -o out.json      every workload, both sides
//	sh bench/run.sh --compare a.json b.json  verdict per workload and metric
//
// The first two forms are the contract BENCHMARK.json describes: the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. See README.md for what the names mean.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see README.md)")
		seed    = flag.Int64("seed", 1, "seed the campaign seeds are derived from")
		seconds = flag.Float64("seconds", 25, "how long an untraced run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
		scale   = flag.Float64("scale", defaultScale, "common factor applied to every workload's full size")
		suite   = flag.Bool("suite", false, "run every workload, untraced and traced, and write one results file")
		runs    = flag.Int("runs", 3, "with -suite: untraced runs per workload, seeds seed..seed+runs-1")
		out     = flag.String("o", "", "with -suite: results file (default standard output)")
		compare = flag.Bool("compare", false, "compare two -suite results files given as arguments")
		probe   = flag.Bool("host-probe", false, "run the host-speed probe once, with the directory given as argument for its barriers, and print its two times (what the harness starts itself as)")
	)
	flag.Parse()
	var err error
	switch {
	case *probe:
		err = runProbeChild(flag.Arg(0))
	case *compare:
		err = compareFiles(flag.Args())
	case *suite:
		err = runSuite(*seed, *seconds, *scale, *runs, *out)
	default:
		err = runOne(*name, *seed, *seconds, *scale, *trace != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// invoke performs one measurement in a fresh environment.
func invoke(name string, seed int64, seconds, scale float64, traced bool) (*result, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	e, err := newEnv()
	if err != nil {
		return nil, err
	}
	defer e.close()
	if traced {
		return traceRun(e, w, seed, scale)
	}
	return measureRun(e, w, seed, seconds, scale)
}

// runOne is the contract form: a readable table, then the result object
// as the last line. A failed check is reported in the object and by a
// non-zero exit.
func runOne(name string, seed int64, seconds, scale float64, traced bool) error {
	res, err := invoke(name, seed, seconds, scale, traced)
	if err != nil {
		return err
	}
	printResult(res)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d check(s) failed", name, len(res.Problems))
	}
	return nil
}

// remarks is what a table line says after a metric's value: whether it
// is an exact counter, and its note.
func remarks(workload, metric string, notes map[string]string) string {
	s := ""
	if isExact(workload, metric) {
		s = "  exact"
	}
	if note := notes[metric]; note != "" {
		s += "  (" + note + ")"
	}
	return s
}

func printResult(res *result) {
	fmt.Printf("workload %s  seed %d  n %d  attempted %d  failed %d\n",
		res.Workload, res.Seed, res.N, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Printf("  %-42s %16.6g %-10s%s\n", n, v.Value, v.Unit, remarks(res.Workload, n, res.Notes))
	}
	for _, c := range res.Campaigns {
		fmt.Printf("  campaign seed %d  rows %.16s  report %.16s  as read: %9.6g exp/s  %8.5f cpu s/kexp  analyze %.4f s  host slower: cpu %.3f barrier %.3f\n",
			c.Seed, c.Rows, c.Report, c.ExpPerS, c.CPUPerKexp, c.AnalyzeS, c.CPUSlowdown, c.BarrierSlowdown)
	}
	if res.SpanFile != "" {
		fmt.Printf("  spans written to %s\n", res.SpanFile)
	}
	for _, p := range res.Problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}
