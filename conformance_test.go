// The conformance matrix: the byte-identity guarantee stated once, as a
// table. A spec is one campaign on one registered target kind, a mode one
// way to execute it, and every cell of spec × mode must store the rows,
// render the report and count the outcomes of the spec's cold oracle — the
// campaign on one board with forwarding off (RunSpec.NoForward), which
// forwards, prunes, cuts and skips nothing. Rows are compared as their
// stored column bytes, detail-trace rows included. Every run goes through
// core.Assemble and Finish, the assembly `goofi run` uses.
//
// The table declares every cell: a spec runs a mode or says why not, and a
// cell that is neither, or one that skips itself, fails the test. A new
// mode is one entry of modes and one word in the rows that run it.
// DESIGN.md's "The invariant set" names the cell or column that checks
// each invariant.
package goofi_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/asm"
	"goofi/internal/campaign"
	"goofi/internal/chaos"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/scifi"
	"goofi/internal/shard"
	"goofi/internal/sqldb"
	"goofi/internal/swifi"
	"goofi/internal/telemetry"
	"goofi/internal/thor"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// spec is a row of the matrix: a campaign, the target kind it runs on, the
// cells it declares, and what those cells must show beyond the oracle's
// bytes.
type spec struct {
	name   string
	kind   string // registered target kind; "" is scifi
	params map[string]string
	camp   *campaign.Campaign // shared by its runs, which only read it
	cells  cells

	// prunes: the forwarding cells prune, and with bothClasses latent and
	// overwritten experiments both; without it nothing may be pruned.
	prunes, bothClasses bool
	// forwards: the forwarding cells restore checkpoints and emulate fewer
	// cycles than the oracle; without it they restore none.
	forwards bool
	// converges: some experiment re-joins the reference run and ends
	// there; skips: some experiment skips a steady state to its last
	// iteration.
	converges, skips bool
	// defUseTo is a cycle the reference's def-use table must reach.
	defUseTo uint64
	// sha pins the oracle's decoded records (one JSON line each, name
	// order); golden pins its report.
	sha, golden string
}

// cells declares a spec's cells: the modes it runs, and why it leaves out
// every other.
type cells struct {
	run  string
	skip map[string]string
}

// outcome is what one execution left: its summary (nil where a mode has
// no summary of the whole campaign), every stored row, the report, the
// forward set a solo run used, and the store.
type outcome struct {
	sum    *core.Summary
	rows   []string
	report string
	set    *core.ForwardSet
	st     *campaign.Store
}

// mode is a column of the matrix. run executes the spec's campaign that way
// and asserts the mode's own expectation; mechanisms says the cell forwards,
// prunes, cuts and skips as a plain run does, so the spec's expectation
// columns hold for its summary; merged says its rows reach the store in the
// order reports arrive, so they are compared as a set, not in store order;
// differs makes it a negative control, whose rows must not be the oracle's.
type mode struct {
	name                        string
	run                         func(t *testing.T, sp *spec) outcome
	mechanisms, merged, differs bool
}

var modes = []mode{
	{name: "solo", mechanisms: true, run: func(t *testing.T, sp *spec) outcome {
		return sp.run(t, sp.runSpec(1))
	}},
	{name: "boards-3", mechanisms: true, run: func(t *testing.T, sp *spec) outcome {
		return sp.run(t, sp.runSpec(3))
	}},
	{name: "fast-path-off", mechanisms: true, run: func(t *testing.T, sp *spec) outcome {
		rs := sp.runSpec(1)
		rs.TargetParams = withParams(rs.TargetParams, "fastpath", "off")
		return sp.run(t, rs)
	}},
	{name: "resume", run: func(t *testing.T, sp *spec) outcome { return resumeRun(t, sp, 3) }},
	{name: "resume-solo", run: func(t *testing.T, sp *spec) outcome { return resumeRun(t, sp, 1) }},
	{name: "target-chaos", run: func(t *testing.T, sp *spec) outcome {
		rs := sp.onChaos(sp.runSpec(1), "flaky")
		rs.Retry = core.RetryPolicy{MaxRetries: 7, BackoffBase: time.Microsecond}
		got := sp.run(t, rs)
		if got.sum.Retried == 0 || got.sum.InvalidRuns != 0 {
			t.Errorf("%d retried, %d invalid: want retries absorbing every fault", got.sum.Retried, got.sum.InvalidRuns)
		}
		// A retry, on a power-cycled board too, restores, prunes, cuts and
		// skips what the first attempt would have.
		plain, s := sp.run(t, sp.runSpec(1)).sum, got.sum
		if s.Forwarded != plain.Forwarded || s.Pruned != plain.Pruned || s.Converged != plain.Converged || s.Steady != plain.Steady {
			t.Errorf("forwarded %d, pruned %+v, converged %d, steady %d; without chaos %d, %+v, %d, %d",
				s.Forwarded, s.Pruned, s.Converged, s.Steady, plain.Forwarded, plain.Pruned, plain.Converged, plain.Steady)
		}
		return got
	}},
	{name: "corrupt", differs: true, run: func(t *testing.T, sp *spec) outcome {
		got := sp.run(t, sp.onChaos(sp.runSpec(1), "silent"))
		if got.sum.Retried != 0 {
			t.Errorf("silent corruption was retried %d times: it was not silent", got.sum.Retried)
		}
		return got
	}},
	{name: "observed", mechanisms: true, run: func(t *testing.T, sp *spec) outcome { return observedRun(t, sp, 3) }},
	{name: "observed-solo", mechanisms: true, run: func(t *testing.T, sp *spec) outcome { return observedRun(t, sp, 1) }},
	{name: "fleet", mechanisms: true, run: fleetRun},
	{name: "shard", merged: true, run: func(t *testing.T, sp *spec) outcome { return shardRun(t, sp, false) }},
	{name: "shard-mixed-reference", merged: true, run: func(t *testing.T, sp *spec) outcome { return shardRun(t, sp, true) }},
}

// Why a spec leaves a mode out, unless its row says otherwise.
var skipWhy = map[string]string{
	"fast-path-off":         "the fast path is thor's, not the campaign's: the quickstart and technique specs turn it off, on sort16 and on the PID loop",
	"resume":                "a stop and a resume are the scheduler's and the cursor's, whatever the fault model: the quickstart, sort16-cpu and pid-long specs run them",
	"resume-solo":           "a stop and a resume are the scheduler's and the cursor's, whatever the fault model: the quickstart, sort16-cpu and pid-long specs run them",
	"target-chaos":          "a retried attempt starts over from power-on whatever the campaign: the quickstart spec runs it",
	"observed":              "telemetry reads counters, never the campaign: the quickstart spec runs it on three boards",
	"observed-solo":         "telemetry reads counters, never the campaign: the quickstart spec runs it on one board",
	"fleet":                 "a shared fleet leases boards whatever the campaign: the quickstart spec runs it",
	"shard":                 "workers run the solo assembly over a range: the quickstart spec runs it, and internal/shard's conformance suite the rest",
	"shard-mixed-reference": "a refused reference is the coordinator's, whatever the campaign: the quickstart spec runs it",
}

// row declares the cells that run the modes in run, and skips those in skip
// for skipWhy's reasons and those in own for its own.
func row(run, skip string, own map[string]string) cells {
	c := cells{run: run, skip: map[string]string{}}
	maps.Copy(c.skip, own)
	for _, m := range strings.Fields(skip) {
		c.skip[m] = skipWhy[m]
	}
	return c
}

const (
	resumes   = "resume resume-solo"
	elsewhere = "target-chaos observed observed-solo fleet shard shard-mixed-reference"
)

var (
	everyMode    = cells{run: "solo boards-3 fast-path-off " + resumes + " corrupt " + elsewhere}
	loopTimesOut = map[string]string{"corrupt": "a corrupted closed loop runs to its time-out, hundreds of thousands of cycles an experiment: the sort-based specs carry the negative control"}
	pruneRow     = row("solo boards-3 corrupt", "fast-path-off "+resumes+" "+elsewhere, nil)
	closedRow    = row("solo boards-3", "fast-path-off "+resumes+" "+elsewhere, loopTimesOut)
	resumeRow    = row("solo boards-3 "+resumes, "fast-path-off "+elsewhere, loopTimesOut)
	techRow      = row("solo boards-3 fast-path-off", resumes+" "+elsewhere, map[string]string{
		"corrupt": "the chaos harness corrupts scan reads: SWIFI makes none, and the pin-level board's are the scifi board's; the scifi specs carry the negative control"})
)

// specs is the matrix's rows. What each folded suite asserted is a column:
// the prune differentials' prunes and bothClasses, the forwarding ones'
// forwards and converges, the steady-state ones' skips, the technique pins'
// sha; the rest is what each campaign shows today.
func specs() []*spec {
	cpu := []string{"cpu"}
	return []*spec{
		{name: "quickstart", camp: quickstartCampaign(), cells: everyMode, prunes: true, bothClasses: true, forwards: true,
			golden: "quickstart_report.golden"},

		// Def-use pruning: configurations that prune, and ones that never may.
		{name: "E1", camp: pidCampaign("e1", 200, 1), cells: closedRow, prunes: true, bothClasses: true, forwards: true, converges: true},
		{name: "sort16-cpu", camp: sortCampaign("sort", 150, 7, cpu), cells: row("solo boards-3 corrupt "+resumes, "fast-path-off "+elsewhere, nil),
			prunes: true, forwards: true},
		{name: "sort16-caches", camp: sortCampaign("sort-b3", 120, 11, []string{"cpu", "icache", "dcache"}), cells: pruneRow,
			prunes: true, forwards: true},
		{name: "multi-bit", camp: with(pidCampaign("multi", 150, 5), func(c *campaign.Campaign) { c.FaultModel.Multiplicity = 3 }),
			cells: closedRow, prunes: true, forwards: true},
		{name: "instret-trigger", camp: with(sortCampaign("instret", 80, 3, []string{"cpu", "dcache"}), func(c *campaign.Campaign) {
			c.Trigger, c.RandomWindow = trigger.Spec{Kind: "instret", Count: 700}, [2]uint64{}
		}), cells: pruneRow, prunes: true, forwards: true},
		// Fires at cycle 40, inside the forwarding margin: the set holds a
		// table and no checkpoint.
		{name: "rtc-trigger-before-any-checkpoint", camp: with(sortCampaign("rtc", 60, 4, cpu), func(c *campaign.Campaign) {
			c.Trigger, c.RandomWindow = trigger.Spec{Kind: "rtc", Period: 20, Occurrence: 2}, [2]uint64{}
		}), cells: pruneRow, prunes: true},
		// sort16 halts a little before cycle 2,000: a good share of these
		// injection points is never reached, and none of those is pruned.
		{name: "trigger-past-the-end", camp: with(sortCampaign("late", 120, 13, cpu), func(c *campaign.Campaign) {
			c.RandomWindow = [2]uint64{1_000, 3_000}
		}), cells: pruneRow, prunes: true, forwards: true},
		{name: "timeout-ends-the-reference", camp: with(sortCampaign("timeout", 80, 17, cpu), func(c *campaign.Campaign) {
			c.Termination.TimeoutCycles = 1_000
		}), cells: pruneRow, prunes: true, forwards: true},
		{name: "stuck-at-0", camp: with(sortCampaign("sa0", 40, 19, cpu), func(c *campaign.Campaign) {
			c.FaultModel = faultmodel.Spec{Kind: faultmodel.StuckAt0}
		}), cells: pruneRow, forwards: true},
		{name: "intermittent", camp: with(pidCampaign("interm", 40, 23), func(c *campaign.Campaign) {
			c.FaultModel = faultmodel.Spec{Kind: faultmodel.Intermittent, ActiveProb: 0.5}
		}), cells: closedRow, forwards: true},
		{name: "detail-mode", camp: with(sortCampaign("detail", 6, 29, cpu), func(c *campaign.Campaign) {
			c.RandomWindow, c.LogMode = [2]uint64{10, 300}, campaign.LogDetail
		}), cells: pruneRow},
		{name: "breakpoint-trigger", camp: with(sortCampaign("bp", 30, 31, cpu), func(c *campaign.Campaign) {
			c.Trigger, c.RandomWindow = trigger.Spec{Kind: "branch", Occurrence: 40}, [2]uint64{}
		}), cells: pruneRow},

		// Checkpoint forwarding, with and without an environment simulator;
		// a persistent fault is reasserted after a restore and never lets a
		// run re-join the reference.
		{name: "pid-envsim-transient", camp: with(pidCampaign("fw-transient", 12, 17), func(c *campaign.Campaign) {
			c.RandomWindow = [2]uint64{200, 4000}
		}), cells: closedRow, prunes: true, forwards: true},
		{name: "pid-envsim-converges", camp: with(pidCampaign("fw-converges", 300, 1001), func(c *campaign.Campaign) {
			c.Termination.MaxIterations = 300
		}), cells: closedRow, prunes: true, bothClasses: true, forwards: true, converges: true, skips: true},
		{name: "sort-stuckat1-persistent", camp: with(sortCampaign("fw-sort-sa1", 12, 23, cpu), func(c *campaign.Campaign) {
			c.FaultModel = faultmodel.Spec{Kind: faultmodel.StuckAt1}
		}), cells: pruneRow, forwards: true},
		{name: "pid-stuckat1-persistent", camp: with(pidCampaign("fw-pid-sa1", 40, 1001), func(c *campaign.Campaign) {
			c.Locations, c.FaultModel = cpu, faultmodel.Spec{Kind: faultmodel.StuckAt1}
		}), cells: closedRow, forwards: true},

		// The steady-state skip on pid-long's shape.
		{name: "pid-long", camp: pidLongCampaign("steady", 300), cells: resumeRow,
			prunes: true, bothClasses: true, forwards: true, converges: true, skips: true},
		// With ten times the default drag the engine settles within about
		// 200 iterations; at the default it hunts around its set point in a
		// cycle hundreds of iterations long, and nothing skips.
		{name: "engine", camp: with(pidLongCampaign("engine", 150), func(c *campaign.Campaign) {
			c.EnvSim = &campaign.EnvSimSpec{Name: "engine", Params: map[string]float64{"drag": 0.5}}
		}), cells: closedRow, prunes: true, forwards: true, converges: true, skips: true},
		{name: "engine-hunting", camp: with(pidLongCampaign("hunting", 100), func(c *campaign.Campaign) {
			c.EnvSim = &campaign.EnvSimSpec{Name: "engine"}
		}), cells: closedRow, prunes: true, forwards: true, converges: true},
		// The scripted simulator keeps every output it is handed: its state
		// grows each iteration and never repeats.
		{name: "scripted", camp: with(pidLongCampaign("scripted", 100), func(c *campaign.Campaign) {
			c.EnvSim = &campaign.EnvSimSpec{Name: "scripted"}
		}), cells: closedRow, prunes: true, forwards: true, converges: true},
		// No iteration limit: the reference and every settled run end on the
		// time-out, a few iterations after their skip.
		{name: "time-out", camp: with(pidLongCampaign("time-out", 150), func(c *campaign.Campaign) {
			c.Termination = campaign.Termination{TimeoutCycles: 120_000}
		}), cells: closedRow, prunes: true, forwards: true, skips: true},
		// Injections well after the reference settles (about cycle 15,000):
		// it may not skip before, and its def-use table reaches the window's
		// end.
		{name: "window-past-onset", camp: with(pidLongCampaign("onset", 150), func(c *campaign.Campaign) {
			c.RandomWindow = [2]uint64{200, 30_000}
		}), cells: closedRow, prunes: true, forwards: true, converges: true, skips: true, defUseTo: 29_999},
		{name: "pid-long-multi-bit", camp: with(pidLongCampaign("steady-multi", 150), func(c *campaign.Campaign) {
			c.FaultModel.Multiplicity = 3
		}), cells: closedRow, prunes: true, forwards: true, skips: true},
		// A reasserted fault: no faulty run is a function of its state alone,
		// and none skips; the reference still may.
		{name: "pid-long-persistent", camp: with(pidLongCampaign("steady-sa1", 40), func(c *campaign.Campaign) {
			c.Locations, c.FaultModel = cpu, faultmodel.Spec{Kind: faultmodel.StuckAt1}
		}), cells: closedRow, forwards: true},

		// The techniques that share the THOR-S board with SCIFI, pinned to
		// the rows they stored before SWIFI moved onto it. Pre-runtime SWIFI
		// records nothing to forward from; the pruner is SCIFI's.
		{name: "swifi-preruntime-sort16", kind: "swifi-preruntime", params: image(workload.Sort()),
			camp: with(sortCampaign("pin-pre", 200, 9, nil), onSwifi), cells: techRow,
			sha: "4ebc82f72397fd9953bc5e3d59a4ed8a5c53c2a168a38e1ff336d9d5ec5fcf94"},
		{name: "swifi-runtime-sort16", kind: "swifi-runtime", params: image(workload.Sort()),
			camp: with(sortCampaign("pin-rt", 120, 17, nil), onSwifi), cells: techRow, forwards: true,
			sha: "9a6a97c737c088076ef3b9e1cf569af2ab05ec4adad3d8bf32b9a86f2da1028c"},
		{name: "swifi-runtime-pid", kind: "swifi-runtime", params: image(workload.PID()),
			camp: with(pidCampaign("pin-rt-pid", 60, 5), onSwifi), cells: techRow, forwards: true, converges: true,
			sha: "8f78e0165c556b70cf01d9c70efa259c5e1c0aa1dfcff067c1b5a88c92d6789e"},
		// swifi's TestRuntimeSWIFIRecoveryHandlers' campaign.
		{name: "swifi-runtime-recovery-handlers", kind: "swifi-runtime", params: image(workload.PIDAssert()),
			camp: with(pidCampaign("pin-rt-h", 30, 9), func(c *campaign.Campaign) {
				onSwifi(c)
				c.Workload, c.RandomWindow = workload.PIDAssert(), [2]uint64{100, 4000}
				c.Termination = campaign.Termination{TimeoutCycles: 200_000, MaxIterations: 40}
			}), cells: techRow, forwards: true, converges: true,
			sha: "11b0f47c7e82d78eb6d96fdd4d1fd9616713d65c2353ef422dfd28a6bbe48f80"},
		{name: "pin-level-transient-sort16", kind: "pin-level", camp: with(sortCampaign("pin-pins", 60, 3, nil), onPins),
			cells: techRow, forwards: true,
			sha: "374a0a41a0ae2061ab676265e92c9ae47c4f97e9280911c1198cc478f5751f6e"},
		{name: "pin-level-transient-pid", kind: "pin-level", camp: with(pidCampaign("pin-pins-pid", 40, 3), func(c *campaign.Campaign) {
			onPins(c)
			c.RandomWindow = [2]uint64{200, 3000}
		}), cells: techRow, forwards: true, converges: true,
			sha: "1f07758c8fc896485ac71af9f6c43237633efe2165e4022933f0fe8995c00f7e"},
	}
}

// onSwifi and onPins move a campaign onto the SWIFI and the pin-level
// target; image is the SWIFI target param that sizes its fault space to a
// workload's image.
func onSwifi(c *campaign.Campaign) {
	c.TargetName, c.ChainName, c.Locations = "thor-swifi", swifi.MemoryChainName, []string{"mem"}
}

func onPins(c *campaign.Campaign) {
	c.TargetName, c.ChainName, c.Locations = "thor-pins", "boundary", []string{"pin.data_in"}
}

func image(wl campaign.WorkloadSpec) map[string]string {
	n, err := asm.ImageSize(wl.Source)
	if err != nil {
		panic(err)
	}
	return map[string]string{"image-bytes": strconv.Itoa(n)}
}

// with edits a campaign in place and returns it.
func with(c *campaign.Campaign, edit func(c *campaign.Campaign)) *campaign.Campaign {
	edit(c)
	return c
}

// pidLongCampaign is the pid-long benchmark's shape: 1,000 iterations of the
// PID loop, caches in the fault space, injections in 200:8000.
func pidLongCampaign(name string, n int) *campaign.Campaign {
	c := pidCampaign(name, n, 1001)
	c.Termination = campaign.Termination{TimeoutCycles: 4_000_000, MaxIterations: 1000}
	return c
}

func TestConformance(t *testing.T) {
	for _, sp := range specs() {
		t.Run(sp.name, func(t *testing.T) {
			declared := strings.Fields(sp.cells.run)
			for _, m := range modes {
				if run, why := slices.Contains(declared, m.name), sp.cells.skip[m.name]; run == (why != "") {
					t.Errorf("cell %s/%s: run %v, skip %q; a cell either runs or says why not", sp.name, m.name, run, why)
				}
			}
			if len(declared)+len(sp.cells.skip) != len(modes) {
				t.Errorf("%d cells run and %d skip, of %d modes", len(declared), len(sp.cells.skip), len(modes))
			}
			rs := sp.runSpec(1)
			rs.NoForward = true
			oracle := sp.run(t, rs)
			sp.checkOracle(t, oracle)
			for _, m := range modes {
				if !slices.Contains(declared, m.name) {
					continue
				}
				var cell *testing.T
				t.Run(m.name, func(t *testing.T) {
					cell = t
					got := m.run(t, sp)
					if m.differs {
						if slices.Equal(got.rows, oracle.rows) {
							t.Error("the corrupted campaign stored the oracle's rows: the matrix cannot see corruption")
						}
						return
					}
					want := oracle
					if m.merged {
						want.rows = slices.Clone(oracle.rows)
						slices.Sort(want.rows)
						slices.Sort(got.rows)
					}
					sameOutcome(t, want, got)
					if m.mechanisms {
						sp.checkMechanisms(t, oracle.sum, got)
					}
				})
				if cell != nil && cell.Skipped() { // nil: -run left the cell out
					t.Errorf("cell %s/%s skipped itself: a declared cell runs", sp.name, m.name)
				}
			}
		})
	}
}

// checkOracle holds the oracle to what forwarding off means, to the plan
// (conservation), and to the spec's pins.
func (sp *spec) checkOracle(t *testing.T, oracle outcome) {
	t.Helper()
	s, n := oracle.sum, sp.camp.NumExperiments
	if s.Forwarded != 0 || s.CyclesSaved != 0 || s.Pruned.Total() != 0 || s.Converged != 0 || s.CyclesConverged != 0 ||
		s.Steady != 0 || s.CyclesSteady != 0 {
		t.Errorf("the oracle forwarded %d (%d cycles), pruned %d, converged %d (%d cycles), skipped %d (%d cycles)",
			s.Forwarded, s.CyclesSaved, s.Pruned.Total(), s.Converged, s.CyclesConverged, s.Steady, s.CyclesSteady)
	}
	ends, err := oracle.st.CountExperiments(sp.camp.Name)
	if err != nil || s.Experiments != n || ends != n+1 {
		t.Errorf("planned %d, the oracle ran %d and stored %d end rows besides the reference's (%v)", n, s.Experiments, ends-1, err)
	}
	if sp.golden != "" {
		want, err := os.ReadFile(filepath.Join("testdata", sp.golden))
		if err != nil {
			t.Fatal(err)
		}
		if oracle.report != string(want) {
			t.Errorf("the oracle's report drifted from testdata/%s\n got:\n%s\nwant:\n%s", sp.golden, oracle.report, want)
		}
	}
	if sp.sha != "" {
		// The pins hash the records as the store decodes them, one JSON line
		// each, in name order.
		recs, err := oracle.st.Experiments(sp.camp.Name)
		var dump bytes.Buffer
		for i := 0; err == nil && i < len(recs); i++ {
			err = json.NewEncoder(&dump).Encode(recs[i])
		}
		if err != nil {
			t.Fatal(err)
		}
		if h := sha256.Sum256(bytes.TrimSuffix(dump.Bytes(), []byte("\n"))); hex.EncodeToString(h[:]) != sp.sha {
			t.Errorf("decoded rows hash %x, pinned %s", h, sp.sha)
		}
	}
}

// sameOutcome fails unless got stored, rendered and counted what the oracle
// did, and conserved the plan: planned = accepted + invalid, pruned ⊆
// accepted and injected.
func sameOutcome(t *testing.T, oracle, got outcome) {
	t.Helper()
	if len(got.rows) != len(oracle.rows) {
		t.Errorf("%d rows stored, the oracle stored %d", len(got.rows), len(oracle.rows))
	}
	for i := range min(len(got.rows), len(oracle.rows)) {
		if got.rows[i] != oracle.rows[i] {
			t.Errorf("row %d differs\noracle %.300s\n   got %.300s", i, oracle.rows[i], got.rows[i])
			break
		}
	}
	if got.report != oracle.report {
		t.Errorf("analysis report differs\noracle:\n%s\ngot:\n%s", oracle.report, got.report)
	}
	if s, o := got.sum, oracle.sum; s != nil {
		if s.Experiments != o.Experiments || s.Injected != o.Injected || s.Skipped != o.Skipped ||
			s.InvalidRuns != o.InvalidRuns || s.PlanHash != o.PlanHash || s.Deterministic != o.Deterministic ||
			!reflect.DeepEqual(s.ByStatus, o.ByStatus) || !reflect.DeepEqual(s.ByMechanism, o.ByMechanism) {
			t.Errorf("summary counts differ\noracle %+v\n   got %+v", o, s)
		}
		if p := s.Pruned.Total(); p > s.Experiments-s.InvalidRuns || p > s.Injected {
			t.Errorf("pruned %d of %d accepted, %d injected", p, s.Experiments-s.InvalidRuns, s.Injected)
		}
	}
}

// checkMechanisms holds a forwarding cell's summary to the spec's
// expectation columns, against the oracle's.
func (sp *spec) checkMechanisms(t *testing.T, oracle *core.Summary, got outcome) {
	t.Helper()
	s := got.sum
	p := s.Pruned
	switch {
	case !sp.prunes && p.Total() != 0:
		t.Errorf("pruned %d latent + %d overwritten in a campaign that must never prune", p.Latent, p.Overwritten)
	case sp.prunes && p.Total() == 0:
		t.Error("nothing was pruned: the spec is vacuous")
	case sp.bothClasses && (p.Latent == 0 || p.Overwritten == 0):
		t.Errorf("pruned %d latent, %d overwritten: want both classes", p.Latent, p.Overwritten)
	}
	if sp.forwards != (s.Forwarded > 0) || sp.forwards && s.CyclesSaved == 0 {
		t.Errorf("forwarded %d, saving %d cycles; want forwarding = %v", s.Forwarded, s.CyclesSaved, sp.forwards)
	}
	if sp.converges != (s.Converged > 0) {
		t.Errorf("%d converged runs, want some = %v", s.Converged, sp.converges)
	}
	// The reference is one of the runs counted, so an experiment skipped
	// when more than one run did.
	if sp.skips != (s.Steady > 1) || (s.Steady > 0) != (s.CyclesSteady > 0) {
		t.Errorf("%d runs skipped %d cycles; want experiments skipping = %v", s.Steady, s.CyclesSteady, sp.skips)
	}
	cold, warm := oracle.CyclesEmulated, s.CyclesEmulated+s.CyclesSaved+s.CyclesConverged+s.CyclesSteady
	if sp.prunes && warm >= cold || !sp.prunes && warm != cold {
		t.Errorf("emulated %d + restored %d + converged %d + steady %d cycles, the oracle emulated %d",
			s.CyclesEmulated, s.CyclesSaved, s.CyclesConverged, s.CyclesSteady, cold)
	}
	if !sp.forwards && got.set != nil && len(got.set.Checkpoints) > 0 {
		t.Errorf("the reference recorded %d checkpoints nobody restores", len(got.set.Checkpoints))
	}
	if sp.defUseTo > 0 && got.set != nil {
		if _, _, ok := got.set.DefUse.InjectionPoint(sp.defUseTo, false); !ok {
			t.Errorf("the reference's def-use table ends before cycle %d", sp.defUseTo)
		}
	}
	t.Logf("%d experiments: forwarded %d, pruned %d latent + %d overwritten, converged %d, steady %d; cycles %d (oracle %d)",
		s.Experiments, s.Forwarded, p.Latent, p.Overwritten, s.Converged, s.Steady, s.CyclesEmulated, cold)
}

// runSpec is the spec's campaign on boards boards with `goofi run`'s
// defaults; the caller adds the store.
func (sp *spec) runSpec(boards int) core.RunSpec {
	return core.RunSpec{Campaign: sp.camp, Target: sp.tsd(sp.camp), TargetKind: sp.kind, TargetParams: sp.params,
		Boards: boards, Checkpoint: core.DefaultCheckpointInterval}
}

// tsd is the target system definition the spec's kind configures.
func (sp *spec) tsd(camp *campaign.Campaign) *campaign.TargetSystemData {
	info, _, err := core.ResolveTarget(sp.kind, "")
	if err != nil {
		panic(err)
	}
	tsd, err := info.SystemData(camp.TargetName, core.TargetConfig{Params: sp.params})
	if err != nil {
		panic(err)
	}
	return tsd
}

// store is a fresh in-memory store holding camp and its target.
func (sp *spec) store(t *testing.T, camp *campaign.Campaign) *campaign.Store {
	t.Helper()
	st, err := campaign.NewStore(sqldb.Open())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutTargetSystem(sp.tsd(camp)); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign(camp); err != nil {
		t.Fatal(err)
	}
	return st
}

// run executes rs into a fresh store and reads back what it stored.
func (sp *spec) run(t *testing.T, rs core.RunSpec) outcome {
	t.Helper()
	rs.Store = sp.store(t, rs.Campaign)
	sum, set := execute(t, rs, nil)
	out := readOutcome(t, rs.Store, rs.Campaign.Name)
	out.sum, out.set = sum, set
	return out
}

// execute is one `goofi run`: assemble, look (before, when set), run and
// finish; a run into a caller's sink has nothing to finish.
func execute(t *testing.T, rs core.RunSpec, before func(*core.CampaignRun)) (*core.Summary, *core.ForwardSet) {
	t.Helper()
	cr, err := core.Assemble(rs)
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Close()
	if before != nil {
		before(cr)
	}
	sum, err := cr.Run(context.Background())
	if err == nil && rs.Sink == nil {
		_, err = cr.Finish(sum)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sum, cr.Runner.ForwardSet()
}

// readOutcome reads a campaign's stored rows and renders its report.
func readOutcome(t *testing.T, st *campaign.Store, name string) outcome {
	t.Helper()
	out := outcome{rows: storedRows(t, st, name), st: st}
	rep, err := analysis.AnalyzeAndStore(st, name)
	if err != nil {
		t.Fatal(err)
	}
	out.report = rep.Render()
	return out
}

// storedRows renders every LoggedSystemState row of a campaign, its stored
// column bytes as they are, in store order — plan order at any board count,
// for the hand-over stage logs rows in plan order.
func storedRows(t *testing.T, st *campaign.Store, name string) []string {
	t.Helper()
	r, err := st.DB().Query(`SELECT experimentName, parentExperiment, step, experimentData, stateVector
		FROM LoggedSystemState WHERE campaignName = ?`, sqldb.Text(name))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out = append(out, strings.Join(cells, "|"))
	}
	return out
}

func withParams(p map[string]string, kv ...string) map[string]string {
	out := maps.Clone(p)
	if out == nil {
		out = map[string]string{}
	}
	for i := 0; i < len(kv); i += 2 {
		out[kv[i]] = kv[i+1]
	}
	return out
}

// The chaos harness as a registered kind, so its cells run through
// Assemble like any other: param "inner" is the kind it wraps, "chaos" one
// of chaosConfigs.
const chaosKind = "test-chaos"

var chaosConfigs = map[string]chaos.Config{
	// Detected scan corruption on the fired reads, within a budget the
	// retries absorb; half the faults present as persistent, and power-cycle
	// the board.
	"flaky": {Seed: 99, ScanReadCorruption: 0.4, PersistentProb: 0.5, MaxFaults: 5},
	// Every capture corrupted and nothing reported: the negative control.
	"silent": {Seed: 7, ScanReadCorruption: 1, Silent: true},
}

func (sp *spec) onChaos(rs core.RunSpec, cfg string) core.RunSpec {
	info, _, _ := core.ResolveTarget(sp.kind, "")
	rs.TargetKind, rs.Technique = chaosKind, info.Algorithm
	rs.TargetParams = withParams(rs.TargetParams, "inner", info.Kind, "chaos", cfg)
	return rs
}

// perturbedKind is scifi on a board whose reference run reads one memory
// byte wrong: a worker of another build, as far as its rows can tell.
const perturbedKind = "test-perturbed-reference"

type perturbed struct{ core.TargetSystem }

func (p perturbed) ReadMemory(ex *core.Experiment) error {
	err := p.TargetSystem.ReadMemory(ex)
	if err == nil && ex.IsReference() {
		for _, v := range ex.Result.Memory {
			if len(v) > 0 {
				v[0] ^= 1
				break
			}
		}
	}
	return err
}

func init() {
	core.RegisterTarget(core.TargetInfo{Kind: chaosKind, Algorithm: core.SCIFI.Name,
		New: func(cfg core.TargetConfig) (core.TargetSystem, error) {
			info, _, err := core.ResolveTarget(cfg.Param("inner", ""), "")
			if err != nil {
				return nil, err
			}
			inner, err := info.New(cfg)
			if err != nil {
				return nil, err
			}
			return chaos.Wrap(inner, chaosConfigs[cfg.Param("chaos", "")]), nil
		}})
	core.RegisterTarget(core.TargetInfo{Kind: perturbedKind, Algorithm: core.SCIFI.Name,
		New: func(cfg core.TargetConfig) (core.TargetSystem, error) {
			return perturbed{scifi.New(thor.DefaultConfig())}, nil
		}})
}

// resumeRun stops the campaign once half its experiments are handed over,
// on the given boards, and resumes it from what the store holds, as `goofi
// resume` does. The resumed run re-runs its reference, so what its part
// forwards, prunes, converges and skips is what a fresh run of the same
// range does: the two summaries must be equal.
func resumeRun(t *testing.T, sp *spec, boards int) outcome {
	rs := sp.runSpec(boards)
	n, k := rs.Campaign.NumExperiments, rs.Campaign.NumExperiments/2
	st := sp.store(t, rs.Campaign)
	sink := campaign.NewBatchingSink(st, 0)
	var runner *core.Runner
	first := rs
	first.Sink = &rowHook{CheckpointSink: sink, at: func(i int) {
		if i == k {
			runner.Stop()
		}
	}}
	sum, _ := execute(t, first, func(cr *core.CampaignRun) { runner = cr.Runner })
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sum.Experiments != k {
		t.Fatalf("the stopped run handed over %d experiments, want %d", sum.Experiments, k)
	}
	rest := rs
	rest.Store, rest.Resume = st, true
	part, _ := execute(t, rest, func(cr *core.CampaignRun) {
		if cp := cr.Cursor; cp == nil || !cp.Reference || fmt.Sprint(cp.Ranges) != fmt.Sprint(campaign.SeqRanges{{0, k - 1}}) {
			t.Fatalf("cursor after the stop: %+v, want the reference and seqs 0..%d", cp, k-1)
		}
	})
	fresh := rs
	fresh.ShardLo, fresh.ShardHi = k, n
	freshSum := sp.run(t, fresh).sum
	if !reflect.DeepEqual(part, freshSum) {
		t.Errorf("the resumed part's summary is not a fresh run's of seqs %d..%d\nresumed %+v\n  fresh %+v", k, n-1, part, freshSum)
	}
	if sp.prunes && part.Pruned.Total() == 0 || sp.converges && part.Converged == 0 || sp.skips && part.Steady < 2 {
		t.Errorf("resumed part: pruned %+v, converged %d, steady %d; want every mechanism of the spec at work",
			part.Pruned, part.Converged, part.Steady)
	}
	return readOutcome(t, st, rs.Campaign.Name)
}

// rowHook calls at after every experiment end row the sink behind it has
// taken (the reference's not counted) with how many it has taken: the
// hand-over stage logs each row in plan order just before it resolves it,
// so a Stop from at(k) ends the run with rows 0..k-1.
type rowHook struct {
	core.CheckpointSink
	rows int
	at   func(k int)
}

func (h *rowHook) LogExperiment(rec *campaign.ExperimentRecord) error {
	if err := h.CheckpointSink.LogExperiment(rec); err != nil {
		return err
	}
	if rec.Step < 0 && !rec.IsReference() {
		h.rows++
		h.at(h.rows)
	}
	return nil
}

// observedRun runs the campaign on the given boards fully observed — tracer,
// progress and a /metrics server scraped all along — and wants a span per
// experiment plus the plan's and the reference's, stored, and the progress
// complete.
func observedRun(t *testing.T, sp *spec, boards int) outcome {
	rs := sp.runSpec(boards)
	n := rs.Campaign.NumExperiments
	rs.Tracer, rs.Progress = telemetry.NewTracer(), telemetry.NewProgress(boards)
	srv, err := telemetry.NewServer("127.0.0.1:0", telemetry.Default, rs.Progress)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var stop atomic.Bool
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for i := 0; !stop.Load(); i++ {
			if resp, err := http.Get("http://" + srv.Addr() + []string{"/metrics", "/progress"}[i%2]); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	got := sp.run(t, rs)
	stop.Store(true)
	scraper.Wait()
	if spans, err := got.st.TelemetrySpans(rs.Campaign.Name); err != nil || len(spans) != n+2 {
		t.Errorf("%d spans stored (%v), want %d: the plan's, the reference's and one an experiment", len(spans), err, n+2)
	}
	if snap := rs.Progress.Snapshot(); snap.Done != int64(n) || snap.Total != int64(n) {
		t.Errorf("progress = %d/%d, want %d/%d", snap.Done, snap.Total, n, n)
	}
	return got
}

// fleetRun runs the campaign twice at once, into two stores, leasing boards
// from one fleet of three: both must be the oracle's.
func fleetRun(t *testing.T, sp *spec) outcome {
	fleet, err := core.NewFleet(3)
	if err != nil {
		t.Fatal(err)
	}
	var outs [2]outcome
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := sp.runSpec(3)
			rs.Fleet = fleet
			outs[i] = sp.run(t, rs)
		}()
	}
	wg.Wait()
	if !slices.Equal(outs[0].rows, outs[1].rows) {
		t.Error("two runs of one campaign on a shared fleet stored different rows")
	}
	return outs[1]
}

// shardRun runs the campaign through a shard coordinator and in-process
// workers over three ranges, the way goofid runs a sharded job. With
// perturb, a second worker runs the perturbed kind once the first worker's
// reference is merged: the coordinator must refuse its reports, quarantine
// it and hand its range to the clean worker, so that the store holds none
// of its rows and is the clean fleet's.
func shardRun(t *testing.T, sp *spec, perturb bool) outcome {
	camp := sp.camp
	st := sp.store(t, camp)
	coord, err := shard.NewCoordinator(shard.CoordinatorConfig{Store: st, Campaign: camp, Target: sp.tsd(camp),
		RunOptions: core.RunOptions{TargetKind: sp.kind, TargetParams: sp.params}, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	transports := []shard.Transport{shard.Direct{C: coord}, shard.Direct{C: coord}, shard.Direct{C: coord}}
	var bad *staged
	if perturb {
		clean := &staged{Direct: shard.Direct{C: coord}, merged: make(chan struct{}), refused: make(chan struct{})}
		bad = &staged{Direct: shard.Direct{C: coord}, merged: clean.merged, refused: clean.refused, kind: perturbedKind}
		transports = []shard.Transport{clean, bad}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	errs := make([]error, len(transports))
	var wg sync.WaitGroup
	for i, tr := range transports {
		w, err := shard.NewWorker(shard.WorkerConfig{Name: fmt.Sprintf("w%d", i), Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}()
	}
	wg.Wait()
	if err := coord.Close(); err != nil || !coord.Complete() {
		t.Fatalf("sharded campaign: complete %v, %v; workers %v", coord.Complete(), err, errs)
	}
	if bad != nil {
		fleet := coord.Fleet()
		if bad.refusals == 0 || !fleet[1].Quarantined || fleet[0].Quarantined {
			t.Errorf("%d reports refused; workers %+v: want the perturbed one refused and quarantined", bad.refusals, fleet)
		}
	}
	return readOutcome(t, st, camp.Name)
}

// staged is a worker's in-process transport in the mixed-reference cell.
// The clean worker closes merged at its first accepted report and takes a
// second lease only once refused is closed; the perturbed worker (kind set)
// leases only once merged is closed, runs its leases on kind, and closes
// refused at its first refused report.
type staged struct {
	shard.Direct
	kind            string
	merged, refused chan struct{}
	once            sync.Once
	leases          int
	refusals        int
}

func (s *staged) Lease(ctx context.Context, req shard.LeaseRequest) (*shard.LeaseResponse, error) {
	wait := s.refused
	if s.kind != "" {
		wait = s.merged
	}
	if s.kind != "" || s.leases > 0 {
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s.leases++
	resp, err := s.Direct.Lease(ctx, req)
	if err == nil && resp.Status == shard.LeaseRange && s.kind != "" {
		resp.RunOptions.TargetKind = s.kind
	}
	return resp, err
}

func (s *staged) Report(ctx context.Context, req shard.ReportRequest) (*shard.ReportResponse, error) {
	resp, err := s.Direct.Report(ctx, req)
	switch {
	case err == nil && s.kind == "":
		s.once.Do(func() { close(s.merged) })
	case errors.Is(err, shard.ErrReferenceMismatch):
		s.refusals++
		s.once.Do(func() { close(s.refused) })
	}
	return resp, err
}
