// Row pins for the two techniques that share the THOR-S board with SCIFI.
// Each case is a SWIFI or pin-level campaign whose canonical row dump —
// every LoggedSystemState row, name order, as assertSameCampaign sees it —
// was hashed on the commit before SWIFI moved onto the shared board. One
// hash per case: boards ∈ {1,3} × forwarding on and off, and the
// cycle-accurate step path, must all reproduce it. What the board gives a technique on top of the bytes is asserted
// beside them: runtime SWIFI forwards, pre-runtime SWIFI records nothing to
// forward from, and neither is pruned (the pruner is SCIFI's).
package goofi_test

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"goofi/internal/asm"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/pinlevel"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/swifi"
	"goofi/internal/telemetry"
	"goofi/internal/thor"
	"goofi/internal/workload"
)

func TestTechniqueRowPins(t *testing.T) {
	swifiTSD := func(wl campaign.WorkloadSpec) *campaign.TargetSystemData {
		n, err := asm.ImageSize(wl.Source)
		if err != nil {
			t.Fatal(err)
		}
		return swifi.TargetSystemData("thor-swifi", n)
	}
	onSwifi := func(c *campaign.Campaign) *campaign.Campaign {
		c.TargetName, c.ChainName, c.Locations = "thor-swifi", swifi.MemoryChainName, []string{"mem"}
		return c
	}
	onPins := func(c *campaign.Campaign) *campaign.Campaign {
		c.TargetName, c.ChainName, c.Locations = "thor-pins", "boundary", []string{"pin.data_in"}
		return c
	}
	type factory func(opts ...scifi.Option) core.TargetSystem
	swifiFactory := func(mode swifi.Mode) factory {
		return func(opts ...scifi.Option) core.TargetSystem { return swifi.New(thor.DefaultConfig(), mode, opts...) }
	}
	pinFactory := func(opts ...scifi.Option) core.TargetSystem { return pinlevel.New(thor.DefaultConfig(), opts...) }

	cases := []struct {
		name     string
		alg      core.Algorithm
		factory  factory
		camp     func() *campaign.Campaign
		forwards bool
		sha      string
	}{
		{name: "swifi-preruntime-sort16", alg: core.PreRuntimeSWIFI, factory: swifiFactory(swifi.PreRuntime),
			// The window means nothing to a fault injected before the first
			// cycle, except that a board that could forward would plan
			// checkpoints across it.
			camp: func() *campaign.Campaign { return onSwifi(sortCampaign("pin-pre", 200, 9, nil)) },
			sha:  "4ebc82f72397fd9953bc5e3d59a4ed8a5c53c2a168a38e1ff336d9d5ec5fcf94"},
		{name: "swifi-runtime-sort16", alg: core.RuntimeSWIFI, factory: swifiFactory(swifi.Runtime), forwards: true,
			camp: func() *campaign.Campaign { return onSwifi(sortCampaign("pin-rt", 120, 17, nil)) },
			sha:  "9a6a97c737c088076ef3b9e1cf569af2ab05ec4adad3d8bf32b9a86f2da1028c"},
		{name: "swifi-runtime-pid", alg: core.RuntimeSWIFI, factory: swifiFactory(swifi.Runtime), forwards: true,
			camp: func() *campaign.Campaign { return onSwifi(pidCampaign("pin-rt-pid", 60, 5)) },
			sha:  "8f78e0165c556b70cf01d9c70efa259c5e1c0aa1dfcff067c1b5a88c92d6789e"},
		{name: "swifi-runtime-recovery-handlers", alg: core.RuntimeSWIFI, factory: swifiFactory(swifi.Runtime), forwards: true,
			camp: func() *campaign.Campaign {
				// TestRuntimeSWIFIRecoveryHandlers' campaign.
				c := onSwifi(pidCampaign("pin-rt-h", 30, 9))
				c.Workload = workload.PIDAssert()
				c.RandomWindow = [2]uint64{100, 4000}
				c.Termination = campaign.Termination{TimeoutCycles: 200_000, MaxIterations: 40}
				return c
			},
			sha: "11b0f47c7e82d78eb6d96fdd4d1fd9616713d65c2353ef422dfd28a6bbe48f80"},
		{name: "pin-level-transient-sort16", alg: core.PinLevel, factory: pinFactory, forwards: true,
			camp: func() *campaign.Campaign { return onPins(sortCampaign("pin-pins", 60, 3, nil)) },
			sha:  "374a0a41a0ae2061ab676265e92c9ae47c4f97e9280911c1198cc478f5751f6e"},
		{name: "pin-level-transient-pid", alg: core.PinLevel, factory: pinFactory, forwards: true,
			camp: func() *campaign.Campaign {
				c := onPins(pidCampaign("pin-pins-pid", 40, 3))
				c.RandomWindow = [2]uint64{200, 3000}
				return c
			},
			sha: "1f07758c8fc896485ac71af9f6c43237633efe2165e4022933f0fe8995c00f7e"},
	}
	recorded := func() float64 {
		return telemetry.Default.Snapshot()["goofi_scifi_forward_checkpoints_recorded_total"]
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tsd := pinlevel.TargetSystemData("thor-pins")
			if tc.alg.Name != core.PinLevel.Name {
				tsd = swifiTSD(tc.camp().Workload)
			}
			var cold, warm *core.Summary
			for _, mode := range []struct {
				boards           int
				forwarding, step bool
			}{{1, true, false}, {1, false, false}, {3, true, false}, {3, false, false}, {1, true, true}} {
				board := func() core.TargetSystem { return tc.factory() }
				if mode.step {
					board = func() core.TargetSystem { return tc.factory(scifi.NoFastPath()) }
				}
				var opts []core.RunnerOption
				if mode.boards > 1 {
					opts = append(opts, core.WithBoards(mode.boards, board))
				}
				if !mode.forwarding {
					opts = append(opts, noForwarding)
				}
				before := recorded()
				run := runPruneCase(t, tc.camp(), tsd, tc.alg, board, opts...)
				sum := sha256.Sum256([]byte(strings.Join(run.rows, "\n")))
				if got := hex.EncodeToString(sum[:]); got != tc.sha {
					t.Errorf("%+v: rows hash %s, pinned %s", mode, got, tc.sha)
				}
				if n := run.sum.Pruned.Total(); n != 0 {
					t.Errorf("%+v: pruned %d experiments", mode, n)
				}
				if n := recorded() - before; !tc.forwards && n != 0 {
					t.Errorf("%+v: the reference run recorded %v checkpoints nobody can restore", mode, n)
				}
				if mode.boards == 1 && !mode.step {
					if mode.forwarding {
						warm = run.sum
					} else {
						cold = run.sum
					}
				}
			}
			if cold.Forwarded != 0 || cold.CyclesSaved != 0 {
				t.Errorf("cold run reports forwarding: %d forwarded, %d saved", cold.Forwarded, cold.CyclesSaved)
			}
			if tc.forwards != (warm.Forwarded > 0) {
				t.Errorf("forwarded %d experiments, want forwarding = %v", warm.Forwarded, tc.forwards)
			}
			if cold.Converged != 0 || cold.CyclesConverged != 0 {
				t.Errorf("cold run reports converged runs: %d converged, %d cycles", cold.Converged, cold.CyclesConverged)
			}
			if c, w := cold.CyclesEmulated+cold.CyclesSaved, warm.CyclesEmulated+warm.CyclesSaved+warm.CyclesConverged; c != w {
				t.Errorf("cycles emulated + saved + converged: cold %d, forwarded %d", c, w)
			}
			t.Logf("forwarded %d, converged %d, cycles emulated %d (cold %d)",
				warm.Forwarded, warm.Converged, warm.CyclesEmulated, cold.CyclesEmulated)
		})
	}
}

// TestDefUseOnlyWherePruned: a reference run records its def-use table
// only for an algorithm whose listing is prunable (SCIFI's shape). Pin-level
// and runtime SWIFI campaigns forward, and their sets hold checkpoints but
// no table; their rows are the ones TestTechniqueRowPins pins.
func TestDefUseOnlyWherePruned(t *testing.T) {
	pinTSD := pinlevel.TargetSystemData("thor-pins")
	pins := sortCampaign("du-pins", 60, 3, nil)
	pins.TargetName, pins.ChainName, pins.Locations = "thor-pins", "boundary", []string{"pin.data_in"}
	n, err := asm.ImageSize(workload.Sort().Source)
	if err != nil {
		t.Fatal(err)
	}
	swTSD := swifi.TargetSystemData("thor-swifi", n)
	sw := sortCampaign("du-swifi", 60, 17, nil)
	sw.TargetName, sw.ChainName, sw.Locations = "thor-swifi", swifi.MemoryChainName, []string{"mem"}
	cases := []struct {
		name   string
		alg    core.Algorithm
		tsd    *campaign.TargetSystemData
		camp   *campaign.Campaign
		target core.TargetSystem
		defUse bool
	}{
		{"scifi", core.SCIFI, scifi.TargetSystemData("thor-board"), sortCampaign("du-scifi", 60, 3, []string{"cpu"}),
			scifi.New(thor.DefaultConfig()), true},
		{"pin-level", core.PinLevel, pinTSD, pins, pinlevel.New(thor.DefaultConfig()), false},
		{"swifi-runtime", core.RuntimeSWIFI, swTSD, sw, swifi.New(thor.DefaultConfig(), swifi.Runtime), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := campaign.NewStore(sqldb.Open())
			if err != nil {
				t.Fatal(err)
			}
			if err := st.PutTargetSystem(tc.tsd); err != nil {
				t.Fatal(err)
			}
			sum, _, set := runCampaignSet(t, st, tc.tsd, tc.target, tc.alg, tc.camp)
			if set == nil || len(set.Checkpoints) == 0 {
				t.Fatalf("the reference run recorded no checkpoints (%+v)", set)
			}
			if (set.DefUse != nil) != tc.defUse {
				t.Errorf("def-use table recorded: %v, want %v", set.DefUse != nil, tc.defUse)
			}
			if pruned := sum.Pruned.Total() > 0; pruned != tc.defUse {
				t.Errorf("%d experiments pruned", sum.Pruned.Total())
			}
		})
	}
}
