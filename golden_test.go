// Golden end-to-end test: the quickstart campaign (README and
// examples/quickstart) run from scratch, as `goofi run` runs it, must render
// the exact analysis report stored in testdata/ — the report
// TestConformance's quickstart oracle and every cell of its row render too.
// Any change to planning, injection, simulation, logging or analysis that
// shifts a single outcome shows up as a diff here. Regenerate with
//
//	go test . -run TestQuickstartReportGolden -update
package goofi_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/faultmodel"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// quickstartCampaign mirrors examples/quickstart/main.go exactly.
func quickstartCampaign() *campaign.Campaign {
	return &campaign.Campaign{
		Name:           "quickstart",
		TargetName:     "thor-board",
		ChainName:      "internal",
		Locations:      []string{"cpu"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient},
		Trigger:        trigger.Spec{Kind: "cycle"},
		RandomWindow:   [2]uint64{10, 1600},
		NumExperiments: 100,
		Seed:           2026,
		Termination:    campaign.Termination{TimeoutCycles: 100_000},
		Workload:       workload.Sort(),
		LogMode:        campaign.LogNormal,
	}
}

func TestQuickstartReportGolden(t *testing.T) {
	sp := &spec{camp: quickstartCampaign()}
	got := sp.run(t, sp.runSpec(1)).report
	golden := filepath.Join("testdata", "quickstart_report.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("quickstart report drifted from golden file.\n got:\n%s\nwant:\n%s\n(run with -update if the change is intended)",
			got, want)
	}
}
