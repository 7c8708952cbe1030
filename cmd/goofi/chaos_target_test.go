package main

// A target kind that exists only in this package's test binary: scifi's
// board behind the chaos harness. The CLI's tests reach the fault model
// the way a new target reaches the CLI — through core.RegisterTarget and
// -target/-target-param — so no goofi binary links internal/chaos.

import (
	"strconv"
	"sync/atomic"
	"testing"

	"goofi/internal/chaos"
	"goofi/internal/core"
)

// chaosKind is the registered kind; its parameters are the fault model's:
//
//	scan-read=P   probability a scan capture is corrupted (reported)
//	scan-write=P  probability a scan write exchange fails
//	max-faults=N  total fault budget per board (0 = unlimited)
//	seed=S        the first board draws from S+1, the next from S+2, …
const chaosKind = "scifi-chaos"

// chaosBoards numbers the boards the kind has built, so each board draws
// from its own stream in creation order. runChaos starts it afresh.
var chaosBoards atomic.Int64

// runChaos runs one goofi command with the board numbering reset, so the
// streams a command's boards draw from do not depend on what ran before.
func runChaos(t *testing.T, args ...string) error {
	t.Helper()
	chaosBoards.Store(0)
	return runCmd(t, args...)
}

func init() {
	base, ok := core.LookupTarget("scifi")
	if !ok {
		panic("scifi target not registered")
	}
	core.RegisterTarget(core.TargetInfo{
		Kind:        chaosKind,
		Description: "scifi behind the chaos harness (test binary only)",
		Algorithm:   base.Algorithm,
		New: func(cfg core.TargetConfig) (core.TargetSystem, error) {
			inner, err := base.New(cfg)
			if err != nil {
				return nil, err
			}
			c := chaos.Config{Seed: chaosBoards.Add(1)}
			if c.ScanReadCorruption, err = strconv.ParseFloat(cfg.Param("scan-read", "0"), 64); err != nil {
				return nil, err
			}
			if c.ScanWriteError, err = strconv.ParseFloat(cfg.Param("scan-write", "0"), 64); err != nil {
				return nil, err
			}
			if c.MaxFaults, err = strconv.Atoi(cfg.Param("max-faults", "0")); err != nil {
				return nil, err
			}
			seed, err := strconv.ParseInt(cfg.Param("seed", "0"), 10, 64)
			if err != nil {
				return nil, err
			}
			c.Seed += seed
			return chaos.Wrap(inner, c), nil
		},
		SystemData: base.SystemData,
	})
}
