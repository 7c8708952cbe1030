// Package pinlevel implements pin-level fault injection for THOR-S in the
// style of RIFLE and MESSALINE (paper §1): faults are forced onto the
// circuit pins — here through the boundary-scan register via EXTEST, as
// the paper's composable building blocks allow (§2.1). The fault space is
// the data-in and address pins; a fault of any kind is forced at the
// trigger point, held for DefaultHoldCycles and released. It is never
// reasserted: the fault lives on the pins, not in the internal scan chain
// the board would reassert through.
package pinlevel

import (
	"fmt"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/scanchain"
	"goofi/internal/scifi"
	"goofi/internal/thor"
)

// DefaultHoldCycles is how long a forced pin fault stays on the pins
// before being released.
const DefaultHoldCycles = 64

// Target drives THOR-S through its boundary-scan register. It is the
// shared board plus the pin-level injection path: ReadScanChain samples
// the boundary register, the board's InjectFault computes the forced pins,
// WriteScanChain drives them via EXTEST, and WaitForTermination releases
// them after the hold.
type Target struct {
	*scifi.Board
}

// New returns a pin-level target.
func New(cfg thor.Config, opts ...scifi.Option) *Target {
	return &Target{scifi.NewBoard(cfg, scifi.Technique{Name: "thor-s-board"}, opts...)}
}

// ReadScanChain samples the boundary register instead of the internal
// chain (pins are the pin-level fault space).
func (t *Target) ReadScanChain(ex *core.Experiment) error {
	v, err := t.Controller().SampleBoundary()
	if err != nil {
		return err
	}
	ex.ScanVector = v
	return nil
}

// WriteScanChain drives the (mutated) boundary register onto the pins via
// EXTEST; the force remains active until WaitForTermination releases it.
func (t *Target) WriteScanChain(ex *core.Experiment) error {
	if ex.ScanVector == nil {
		return fmt.Errorf("pinlevel: WriteScanChain with no boundary vector")
	}
	if ex.Fault == nil || !ex.Injected {
		return nil
	}
	m := scifi.BoundaryMap()
	di, err := m.Find("pin.data_in")
	if err != nil {
		return err
	}
	ad, err := m.Find("pin.addr")
	if err != nil {
		return err
	}
	var dataMask, addrMask uint32
	for _, b := range ex.Fault.Bits {
		switch {
		case b >= di.Offset && b < di.End():
			dataMask |= 1 << uint(b-di.Offset)
		case b >= ad.Offset && b < ad.End():
			addrMask |= 1 << uint(b-ad.Offset)
		default:
			return fmt.Errorf("pinlevel: fault bit %d targets a non-forceable pin", b)
		}
	}
	return t.CPU().BoundaryWrite(ex.ScanVector, dataMask, addrMask)
}

// WaitForTermination releases the pin force after the hold (whatever the
// fault kind: a pin fault is transient on the pins), then defers to the
// board's termination loop.
func (t *Target) WaitForTermination(ex *core.Experiment) error {
	if t.CPU().PinForceActive() {
		st := t.CPU().Run(DefaultHoldCycles)
		t.CPU().ClearBoundaryForce()
		if st == thor.StatusOutOfBudget {
			if err := t.CPU().ClearOutOfBudget(); err != nil {
				return err
			}
		}
		// Other statuses (halt/detected/iteration-end) fall through to
		// the board's loop, which handles them.
	}
	return t.Board.WaitForTermination(ex)
}

// TargetSystemData returns the configuration-phase record for pin-level
// campaigns: only the forceable pins are writable.
func TargetSystemData(name string) *campaign.TargetSystemData {
	m := scifi.BoundaryMap()
	for i := range m.Locations {
		switch m.Locations[i].Name {
		case "pin.data_in", "pin.addr":
		default:
			m.Locations[i].ReadOnly = true
		}
	}
	return &campaign.TargetSystemData{
		Name:         name,
		TestCardName: "thor-s-pinlevel-rig",
		Chains:       []scanchain.Map{m},
		Description:  "THOR-S pins forced through boundary-scan EXTEST",
	}
}

// Interface compliance.
var _ core.TargetSystem = (*Target)(nil)
