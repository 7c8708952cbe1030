package main

import (
	"fmt"
	"math"
)

// Campaign and tenant names are fixed: solo and sharded runs of one seed
// must produce rows with identical keys to be comparable byte for byte.
const (
	campaignName = "bench"
	tenantName   = "bench"
	procTarget   = "proc-board"
)

// defaultScale is the common factor applied to every workload's full
// size so that one invocation measures several campaigns within the
// contract's run length. It is never set per workload.
const defaultScale = 0.1

// probeSmall and probeLarge are the fixed sizes of the cursor
// size-scaling probe (the _2k and _20k metrics).
const (
	probeSmall = 2000
	probeLarge = 20000
)

// path is the execution path a workload drives through the binaries.
type path int

const (
	pathSolo   path = iota // goofi configure/setup/run/analyze
	pathShard2             // goofid + goofi submit + two goofi shard-worker
	pathProc               // goofi configure -kind proc ... run -target proc
)

// workload is one closed-loop campaign shape: one campaign at a time,
// the next starting only when the previous one finished.
type workload struct {
	Name string
	Why  string
	path path
	// fullN is the campaign size at scale 1.
	fullN int
	// define holds the campaign-definition flags shared verbatim by
	// `goofi setup` and `goofi submit`, so both paths run the very same
	// campaign.
	define []string
}

var sortDefine = []string{"-workload", "sort16", "-locations", "cpu",
	"-window", "10:1600", "-timeout", "100000"}

var workloads = []workload{
	{
		Name: "sort-solo",
		Why:  "1.7k emulated cycles per experiment, so per-experiment fixed costs (scan shift, record encode, insert, WAL, cursor save) dominate: the storage/overhead-bound case",
		path: pathSolo, fullN: 60000, define: sortDefine,
	},
	{
		Name: "pid-long",
		Why:  "42k emulated cycles per experiment with cache chains: the emulation-bound case, where a store optimisation must show no change and an emulator one must",
		path: pathSolo, fullN: 24000,
		define: []string{"-workload", "pid-control", "-envsim", "first-order-plant",
			"-locations", "cpu,icache,dcache", "-window", "200:8000",
			"-timeout", "4000000", "-max-iterations", "1000"},
	},
	{
		Name: "sort-shard2",
		Why:  "sort-solo's campaign and seeds through goofid and two shard-worker processes: adds transport and bulk merge, rows byte-identical to solo, the multi-core scaling case",
		path: pathShard2, fullN: 60000, define: sortDefine,
	},
	{
		Name: "proc-matmul",
		Why:  "live-process target: time is fork/exec and PTRACE_SINGLESTEP, bypassing thor, scan chains and forwarding entirely",
		path: pathProc, fullN: 2500,
		define: []string{"-target", procTarget, "-chain", "registers", "-locations", "gpr",
			"-window", "1:200", "-timeout", "1000000"},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// n is the campaign size at the given scale.
func (w *workload) n(scale float64) int {
	n := int(math.Round(float64(w.fullN) * scale))
	if n < 1 {
		n = 1
	}
	return n
}

// defineArgs are the full campaign-definition flags for one campaign.
func (w *workload) defineArgs(env *env, n int, seed int64) []string {
	args := []string{"-campaign", campaignName,
		"-experiments", fmt.Sprint(n), "-seed", fmt.Sprint(seed)}
	args = append(args, w.define...)
	if w.path == pathProc {
		args = append(args, "-victim", env.victim)
	}
	return args
}

// campaignSeed derives the i-th campaign seed of an invocation. Every
// workload derives it the same way, so sort-solo and sort-shard2 run
// the same campaigns for the same --seed.
func campaignSeed(seed int64, i int) int64 { return seed*1000 + int64(i) + 1 }
