// Package scifi holds the simulated THOR-S test board (Board: the CPU, its
// IEEE 1149.1 test logic, the environment simulator, and everything about
// an experiment that does not depend on how the fault gets in) and the
// paper's concrete technique on top of it (§3), scan-chain implemented
// fault injection: faults are injected by stopping the workload at a
// trigger point, shifting the internal scan chain out, flipping bits,
// shifting it back, and running to a termination condition while logging
// system state. Pin-level injection (internal/pinlevel) and SWIFI
// (internal/swifi) drive the same Board with other injection steps.
package scifi

import (
	"fmt"

	"goofi/internal/bitvec"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/scanchain"
	"goofi/internal/thor"
)

// IDCode is the JTAG identification code of the THOR-S device.
const IDCode uint32 = 0x5448_0153 // "TH\x01S"

// Target is the SCIFI target system: the board plus the three abstract
// methods that go through the internal scan chain, and the reassertion of
// a persistent fault through the same chain.
type Target struct {
	*Board
}

// New returns a SCIFI target over a fresh THOR-S board.
func New(cfg thor.Config, opts ...Option) *Target {
	t := &Target{}
	t.Board = NewBoard(cfg, Technique{Name: "thor-s-board", Reassert: t.reassert}, opts...)
	return t
}

// internalChain is the name of the THOR-S internal chain.
const internalChain = "internal"

// ChainMap returns the scan-chain map of the THOR-S internal chain, as
// entered in the configuration phase (paper Fig 5).
func ChainMap() scanchain.Map {
	layout := thor.ScanLayout()
	m := scanchain.Map{Chain: internalChain, Length: thor.ScanLen()}
	for _, f := range layout {
		m.Locations = append(m.Locations, scanchain.Location{
			Name: f.Name, Offset: f.Offset, Width: f.Width, ReadOnly: f.ReadOnly,
		})
	}
	return m
}

// BoundaryMap returns the boundary-scan map (for pin-level campaigns).
func BoundaryMap() scanchain.Map {
	m := scanchain.Map{Chain: "boundary", Length: thor.BoundaryLen()}
	for _, f := range thor.BoundaryPinLayout() {
		m.Locations = append(m.Locations, scanchain.Location{
			Name: f.Name, Offset: f.Offset, Width: f.Width, ReadOnly: f.ReadOnly,
		})
	}
	return m
}

// TargetSystemData returns the complete configuration-phase record for
// this target, ready to store in TargetSystemData.
func TargetSystemData(name string) *campaign.TargetSystemData {
	return &campaign.TargetSystemData{
		Name:         name,
		TestCardName: "thor-s-testcard",
		Chains:       []scanchain.Map{ChainMap(), BoundaryMap()},
		Description:  "THOR-S microprocessor board with IEEE 1149.1 test logic",
	}
}

// ReadScanChain captures the internal scan chain into the experiment. The
// experiment owns one vector of the chain's length: the read at the
// injection point allocates it, the final read overwrites it.
func (t *Target) ReadScanChain(ex *core.Experiment) error {
	if ex.ScanVector == nil || ex.ScanVector.Len() != thor.ScanLen() {
		ex.ScanVector = bitvec.New(thor.ScanLen())
	}
	return t.ctrl.ReadInternalInto(ex.ScanVector)
}

// WriteScanChain writes the experiment's scan vector back to the device.
func (t *Target) WriteScanChain(ex *core.Experiment) error {
	if ex.ScanVector == nil {
		return fmt.Errorf("scifi: WriteScanChain with no scan vector")
	}
	return t.ctrl.WriteInternal(ex.ScanVector)
}

// reassert re-applies a persistent fault through the scan chain, reusing
// the board's scratch vector: this runs once per slice for the whole
// faulty remainder of the run.
func (t *Target) reassert(ex *core.Experiment) error {
	v := t.scanVectorScratch()
	if err := t.ctrl.ReadInternalInto(v); err != nil {
		return err
	}
	ex.Fault.Apply(v, ex.RNG)
	return t.ctrl.WriteInternal(v)
}

// Interface compliance.
var (
	_ core.TargetSystem = (*Target)(nil)
	_ core.Forwarder    = (*Target)(nil)
)
