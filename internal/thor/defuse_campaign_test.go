package thor_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
	"goofi/internal/trigger"
)

// The def-use table is only as good as its agreement with what the CPU
// does, on programs nobody wrote with it in mind. This drives the
// fast-path differential's random programs — arithmetic, loads and
// stores through a data window, branches, calls, stack traffic, port
// I/O, handled and terminal traps, iteration ends, garbage words —
// through whole campaigns, twice: with forwarding off, where every
// experiment is emulated, and with it on, where every provable no-op is
// synthesized from the table. Rows and analysis report must agree byte
// for byte.

// randomWorkload wraps a random program image as a campaign workload:
// the image as .word lines, trap 7 handled by restarting the program (as
// newPair installs it), the data window read back as the result.
func randomWorkload(img []byte) campaign.WorkloadSpec {
	var src strings.Builder
	src.WriteString("start:\n")
	for i := 0; i+4 <= len(img); i += 4 {
		fmt.Fprintf(&src, "\t.word 0x%02x%02x%02x%02x\n", img[i], img[i+1], img[i+2], img[i+3])
	}
	src.WriteString("\t.org 0x4000\nwindow:\n\t.word 0\n")
	return campaign.WorkloadSpec{
		Name:             "random",
		Source:           src.String(),
		InputPort:        0,
		OutputPort:       1,
		ResultSymbols:    []string{"window"},
		ResultWords:      80,
		RecoveryHandlers: map[uint16]string{7: "start"},
	}
}

// referenceLength runs img the way the campaign's reference run will and
// returns the cycle it ends at, so the injection window can cover the
// stretch that actually executes: most random programs trap within a few
// dozen cycles, a few run to the time-out.
func referenceLength(t *testing.T, img []byte, timeout uint64, maxIterations int) uint64 {
	t.Helper()
	c := thor.New(thor.DefaultConfig())
	if err := c.LoadMemory(0, img); err != nil {
		t.Fatal(err)
	}
	c.SetTrapHandler(7, 0)
	for iterations := 0; c.Cycle() < timeout; {
		switch c.Run(timeout - c.Cycle()) {
		case thor.StatusIterationEnd:
			if iterations++; iterations >= maxIterations {
				return c.Cycle()
			}
			if err := c.ResumeIteration(); err != nil {
				t.Fatal(err)
			}
		default:
			return c.Cycle()
		}
	}
	return c.Cycle()
}

func runRandomCampaign(t *testing.T, camp *campaign.Campaign, opts ...core.RunnerOption) (*core.Summary, []string, string) {
	t.Helper()
	st, err := campaign.NewStore(sqldb.Open())
	if err != nil {
		t.Fatal(err)
	}
	tsd := scifi.TargetSystemData(camp.TargetName)
	if err := st.PutTargetSystem(tsd); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign(camp); err != nil {
		t.Fatal(err)
	}
	r, err := core.NewRunner(scifi.New(thor.DefaultConfig()), core.SCIFI, camp, tsd,
		append(opts, core.WithSink(st))...)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st.Experiments(camp.Name)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(recs))
	for i, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = string(b)
	}
	rep, err := analysis.AnalyzeAndStore(st, camp.Name)
	if err != nil {
		t.Fatal(err)
	}
	return sum, rows, rep.Render()
}

func TestDefUsePruningDifferentialRandomPrograms(t *testing.T) {
	const programs, faults = 20, 200
	var pruned, latent, overwritten, emulated int
	for seed := int64(0); seed < programs; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		img := randProgram(rng, 64+rng.Intn(192))
		term := campaign.Termination{TimeoutCycles: 15_000, MaxIterations: 25}
		// A fifth of the window lies past the end: triggers never reached.
		window := [2]uint64{1, 2 + referenceLength(t, img, term.TimeoutCycles, term.MaxIterations)*5/4}
		camp := func() *campaign.Campaign {
			return &campaign.Campaign{
				Name:           fmt.Sprintf("random%d", seed),
				TargetName:     "thor-board",
				ChainName:      "internal",
				Locations:      []string{"cpu", "icache", "dcache"},
				FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient, Multiplicity: 1 + int(seed%3)},
				Trigger:        trigger.Spec{Kind: "cycle"},
				RandomWindow:   window,
				NumExperiments: faults,
				Seed:           seed,
				Termination:    term,
				Workload:       randomWorkload(img),
				LogMode:        campaign.LogNormal,
			}
		}
		oracleSum, oracleRows, oracleReport := runRandomCampaign(t, camp(),
			core.WithForwarding(core.ForwardConfig{Disabled: true}))
		if n := oracleSum.Pruned.Total(); n != 0 {
			t.Fatalf("program %d: the oracle pruned %d experiments", seed, n)
		}
		sum, rows, report := runRandomCampaign(t, camp())
		if len(rows) != len(oracleRows) {
			t.Fatalf("program %d: %d rows, oracle %d", seed, len(rows), len(oracleRows))
		}
		for i := range rows {
			if rows[i] != oracleRows[i] {
				t.Fatalf("program %d row %d differs\noracle %s\npruned %s", seed, i, oracleRows[i], rows[i])
			}
		}
		if report != oracleReport {
			t.Fatalf("program %d: analysis report differs\noracle:\n%s\npruned:\n%s", seed, oracleReport, report)
		}
		if sum.Pruned.Total() > sum.Injected {
			t.Errorf("program %d: %d pruned, %d injected", seed, sum.Pruned.Total(), sum.Injected)
		}
		t.Logf("program %d: window %v, %d injected, pruned %+v", seed, window, sum.Injected, sum.Pruned)
		pruned += sum.Pruned.Total()
		latent += sum.Pruned.Latent
		overwritten += sum.Pruned.Overwritten
		emulated += sum.Experiments - sum.Pruned.Total()
	}
	// The suite is vacuous unless pruning and emulation both happened,
	// in both classes.
	if latent == 0 || overwritten == 0 || emulated == 0 {
		t.Fatalf("across %d programs: %d latent, %d overwritten pruned, %d emulated",
			programs, latent, overwritten, emulated)
	}
	t.Logf("%d programs x %d faults: %d pruned (%d latent, %d overwritten), %d emulated, 0 differences",
		programs, faults, pruned, latent, overwritten, emulated)
}
