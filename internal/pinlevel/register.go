package pinlevel

import (
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/scifi"
	"goofi/internal/thor"
)

func init() {
	core.RegisterTarget(core.TargetInfo{
		Kind:          "pin-level",
		Aliases:       []string{"pinlevel"},
		Description:   "THOR-S simulated board with faults forced onto circuit pins via boundary scan",
		Algorithm:     core.PinLevel.Name,
		Deterministic: true,
		New: func(cfg core.TargetConfig) (core.TargetSystem, error) {
			return New(thor.DefaultConfig(), scifi.TargetOptions(cfg)...), nil
		},
		SystemData: func(name string, cfg core.TargetConfig) (*campaign.TargetSystemData, error) {
			return TargetSystemData(name), nil
		},
	})
}
