package main

// The whole benchmark in one go, and the comparison of two such runs.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// suiteFile is what -suite writes and -compare reads.
type suiteFile struct {
	Commit    string                    `json:"commit"`
	GoVersion string                    `json:"go_version"`
	NProc     int                       `json:"nproc"`
	Seed      int64                     `json:"seed"`
	Runs      int                       `json:"runs"`
	Seconds   float64                   `json:"seconds"`
	Scale     float64                   `json:"scale"`
	Workloads map[string]*suiteWorkload `json:"workloads"`
}

// suiteWorkload holds one workload's untraced runs (one value per run
// and end-to-end metric) and its traced run.
type suiteWorkload struct {
	N         int                  `json:"n"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
	Notes     map[string]string    `json:"notes,omitempty"`
	Campaigns []campaignID         `json:"campaigns"`
	SpanFile  string               `json:"span_file"`
}

func commitOf() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func runSuite(seed int64, seconds, scale float64, runs int, out string) error {
	if runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	sf := &suiteFile{Commit: commitOf(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		Seed: seed, Runs: runs, Seconds: seconds, Scale: scale,
		Workloads: make(map[string]*suiteWorkload)}
	var problems []string
	for i := range workloads {
		w := &workloads[i]
		sw := &suiteWorkload{EndToEnd: make(map[string][]float64), PerLayer: make(map[string]float64)}
		sf.Workloads[w.Name] = sw
		for r := 0; r < runs; r++ {
			res, err := invoke(w.Name, seed+int64(r), seconds, scale, false)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			fmt.Fprintf(os.Stderr, "%s untraced run %d/%d done\n", w.Name, r+1, runs)
			sw.N = res.N
			sw.Attempted += res.Attempted
			sw.Failed += res.Failed
			sw.Campaigns = append(sw.Campaigns, res.Campaigns...)
			for name, v := range res.Metrics {
				sw.EndToEnd[name] = append(sw.EndToEnd[name], v.Value)
			}
			problems = append(problems, prefixed(w.Name, res.Problems)...)
		}
		res, err := invoke(w.Name, seed, seconds, scale, true)
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.Name, err)
		}
		fmt.Fprintf(os.Stderr, "%s traced run done\n", w.Name)
		for name, v := range res.Metrics {
			sw.PerLayer[name] = v.Value
		}
		sw.Notes, sw.SpanFile = res.Notes, res.SpanFile
		problems = append(problems, prefixed(w.Name, res.Problems)...)
	}
	problems = append(problems, crossCheck(sf)...)
	printSuite(sf)
	blob, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if out == "" {
		_, err = os.Stdout.Write(blob)
	} else {
		err = os.WriteFile(out, blob, 0o644)
	}
	if err != nil {
		return err
	}
	for _, p := range problems {
		fmt.Println("CHECK FAILED:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d check(s) failed", len(problems))
	}
	return nil
}

func prefixed(name string, problems []string) []string {
	out := make([]string, len(problems))
	for i, p := range problems {
		out[i] = name + ": " + p
	}
	return out
}

// crossCheck holds sort-shard2 to its claim: for every campaign seed
// both workloads ran, the stored rows and the analysis report are
// byte-identical to sort-solo's. It also requires the thor workloads to
// be free of failed experiments.
func crossCheck(sf *suiteFile) []string {
	var problems []string
	solo := make(map[int64]campaignID)
	for _, c := range sf.Workloads["sort-solo"].Campaigns {
		solo[c.Seed] = c
	}
	matched := 0
	for _, c := range sf.Workloads["sort-shard2"].Campaigns {
		s, ok := solo[c.Seed]
		if !ok {
			continue
		}
		matched++
		if s.Rows != c.Rows {
			problems = append(problems, fmt.Sprintf("campaign seed %d: sharded rows %.12s, solo rows %.12s", c.Seed, c.Rows, s.Rows))
		}
		if s.Report != c.Report {
			problems = append(problems, fmt.Sprintf("campaign seed %d: sharded and solo analysis reports differ", c.Seed))
		}
	}
	if matched == 0 {
		problems = append(problems, "sort-solo and sort-shard2 share no campaign seed to compare")
	}
	for _, name := range []string{"sort-solo", "pid-long", "sort-shard2"} {
		if f := sf.Workloads[name].Failed; f != 0 {
			problems = append(problems, fmt.Sprintf("%s: %d failed experiments on a deterministic target", name, f))
		}
	}
	return problems
}

func printSuite(sf *suiteFile) {
	fmt.Printf("commit %s  %s  nproc %d  seed %d  runs %d  scale %g\n",
		sf.Commit, sf.GoVersion, sf.NProc, sf.Seed, sf.Runs, sf.Scale)
	for i := range workloads {
		name := workloads[i].Name
		sw := sf.Workloads[name]
		fmt.Printf("\n%s  n=%d  attempted %d  failed %d\n", name, sw.N, sw.Attempted, sw.Failed)
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(sw.EndToEnd[d.Name])
			fmt.Printf("  %-42s %14.6g %-10s [q1 %.6g, q3 %.6g]\n", d.Name, q2, d.Unit, q1, q3)
		}
		for _, d := range perLayer {
			fmt.Printf("  %-42s %14.6g %-10s%s\n", d.Name, sw.PerLayer[d.Name], d.Unit, remarks(name, d.Name, sw.Notes))
		}
	}
	if solo, sh := sf.Workloads["sort-solo"], sf.Workloads["sort-shard2"]; solo != nil && sh != nil {
		a, b := median(solo.EndToEnd["exp_per_s"]), median(sh.EndToEnd["exp_per_s"])
		if a > 0 {
			fmt.Printf("\nscaling efficiency exp_per_s(sort-shard2)/exp_per_s(sort-solo) = %.3f (base %.6g 1/s)\n", b/a, a)
		}
	}
}

// Verdicts of a comparison.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// verdict judges b against a for one metric. Within the bound is same.
// Where either side's run-to-run spread exceeds the bound the medians
// cannot settle it: the metric is unresolved unless every run of one
// side reads better than every run of the other.
func verdict(d metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return verdictUnresolved
	}
	worseBy := (mb - ma) / ma
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	noisy := spread(a) > d.Bound || spread(b) > d.Bound
	if noisy {
		switch {
		case allBetter(d, b, a):
			return verdictBetter
		case allBetter(d, a, b) && worseBy > d.Bound:
			return verdictWorse
		}
		return verdictUnresolved
	}
	switch {
	case worseBy > d.Bound:
		return verdictWorse
	case worseBy < -d.Bound:
		return verdictBetter
	}
	return verdictSame
}

// allBetter reports whether every value of x reads better than every
// value of y.
func allBetter(d metricDef, x, y []float64) bool {
	for _, vx := range x {
		for _, vy := range y {
			if d.Better == "lower" && vx >= vy || d.Better == "higher" && vx <= vy {
				return false
			}
		}
	}
	return len(x) > 0 && len(y) > 0
}

func readSuite(path string) (*suiteFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf suiteFile
	if err := json.Unmarshal(blob, &sf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sf, nil
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians and quartiles and a verdict, and fails on any worse. Two runs
// of the same seed and scale must also agree bit for bit on every exact
// counter.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two results files")
	}
	a, err := readSuite(paths[0])
	if err != nil {
		return err
	}
	b, err := readSuite(paths[1])
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("a: %s (commit %.12s)\nb: %s (commit %.12s)\n", paths[0], a.Commit, paths[1], b.Commit)
	for i := range workloads {
		name := workloads[i].Name
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		fmt.Printf("\n%s\n", name)
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			v := verdict(d, va, vb)
			if v == verdictWorse {
				bad++
			}
			fmt.Printf("  %-20s a %.6g [%.6g, %.6g]  b %.6g [%.6g, %.6g] %s  bound %g%%  %s\n",
				d.Name, a2, a1, a3, b2, b1, b3, d.Unit, d.Bound*100, v)
		}
		if !exactWorkloads[name] || a.Seed != b.Seed || a.Scale != b.Scale {
			continue
		}
		for _, d := range perLayer {
			if exactLayer[d.Name] && wa.PerLayer[d.Name] != wb.PerLayer[d.Name] {
				bad++
				fmt.Printf("  %-42s exact counter differs: a %v, b %v\n",
					d.Name, wa.PerLayer[d.Name], wb.PerLayer[d.Name])
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) worse or exact counters differing", bad)
	}
	return nil
}
