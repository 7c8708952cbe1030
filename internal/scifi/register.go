package scifi

import (
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/thor"
)

func init() {
	core.RegisterTarget(core.TargetInfo{
		Kind:        "scifi",
		Description: "THOR-S simulated board via scan-chain implemented fault injection",
		Algorithm:   core.SCIFI.Name,
		New: func(cfg core.TargetConfig) (core.TargetSystem, error) {
			return New(thor.DefaultConfig(), TargetOptions(cfg)...), nil
		},
		SystemData: func(name string, cfg core.TargetConfig) (*campaign.TargetSystemData, error) {
			return TargetSystemData(name), nil
		},
	})
}
