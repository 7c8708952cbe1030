package swifi

import (
	"fmt"
	"strconv"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/scifi"
	"goofi/internal/thor"
)

// systemData sizes the fault space from the image-bytes target param.
func systemData(name string, cfg core.TargetConfig) (*campaign.TargetSystemData, error) {
	s := cfg.Param("image-bytes", "4096")
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return nil, fmt.Errorf("swifi: bad image-bytes %q", s)
	}
	return TargetSystemData(name, n), nil
}

func init() {
	core.RegisterTarget(core.TargetInfo{
		Kind: "swifi-preruntime",
		// "swifi" is the legacy configure/submit kind; it keeps meaning
		// the pre-runtime variant.
		Aliases:     []string{"swifi"},
		Description: "THOR-S simulated board, faults written into the image before execution",
		Algorithm:   core.PreRuntimeSWIFI.Name,
		New: func(cfg core.TargetConfig) (core.TargetSystem, error) {
			return New(thor.DefaultConfig(), PreRuntime, scifi.TargetOptions(cfg)...), nil
		},
		SystemData: systemData,
	})
	core.RegisterTarget(core.TargetInfo{
		Kind:        "swifi-runtime",
		Description: "THOR-S simulated board, memory mutated in place at the trigger point",
		Algorithm:   core.RuntimeSWIFI.Name,
		New: func(cfg core.TargetConfig) (core.TargetSystem, error) {
			return New(thor.DefaultConfig(), Runtime, scifi.TargetOptions(cfg)...), nil
		},
		SystemData: systemData,
	})
}
