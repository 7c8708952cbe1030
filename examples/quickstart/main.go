// Quickstart: run a complete GOOFI fault injection campaign in ~50 lines.
//
// It configures the built-in THOR-S SCIFI target, defines a campaign of
// 100 transient bit-flips into the CPU registers while the sort workload
// runs, executes it, reads the run's progress view (paper Fig 7) and prints
// the analysis report (paper §3.4 taxonomy).
package main

import (
	"context"
	"fmt"
	"os"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/telemetry"
	"goofi/internal/thor"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// Configuration phase (Fig 5): store the target system.
	store, err := campaign.NewStore(sqldb.Open())
	if err != nil {
		return err
	}
	tsd := scifi.TargetSystemData("thor-board")
	if err := store.PutTargetSystem(tsd); err != nil {
		return err
	}

	// Set-up phase (Fig 6): define the campaign.
	camp := &campaign.Campaign{
		Name:           "quickstart",
		TargetName:     "thor-board",
		ChainName:      "internal",
		Locations:      []string{"cpu"}, // all registers, PC, flags
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient},
		Trigger:        trigger.Spec{Kind: "cycle"},
		RandomWindow:   [2]uint64{10, 1600}, // uniform injection time
		NumExperiments: 100,
		Seed:           2026,
		Termination:    campaign.Termination{TimeoutCycles: 100_000},
		Workload:       workload.Sort(),
		LogMode:        campaign.LogNormal,
	}
	if err := store.PutCampaign(camp); err != nil {
		return err
	}

	// Fault injection phase (Fig 2 algorithm). The Fig 7 progress window
	// is a Progress view: any goroutine may take a snapshot at any time.
	prog := telemetry.NewProgress(1)
	runner, err := core.NewRunner(
		scifi.New(thor.DefaultConfig()), core.SCIFI, camp, tsd,
		core.WithSink(store),
		core.WithTelemetry(nil, prog),
	)
	if err != nil {
		return err
	}
	if _, err := runner.Run(context.Background()); err != nil {
		return err
	}
	s := prog.Snapshot()
	fmt.Printf("campaign %s: %d/%d experiments (%.0f records/s)\n\n", s.Phase, s.Done, s.Total, s.RecordsPerSecond)

	// Analysis phase (§3.4): classify against the reference run.
	rep, err := analysis.AnalyzeAndStore(store, camp.Name)
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	return nil
}
