package scanchain

import (
	"fmt"

	"goofi/internal/bitvec"
)

// Controller drives a TAP through complete instruction and data register
// scans. It is the host-side "test card" driver: the fault injection
// algorithms call ReadChain / WriteChain, which become full TMS/TDI
// sequences on the TAP.
type Controller struct {
	tap *TAP
	// scratch is the reusable shift vector for the non-destructive read
	// path (ReadDRInto), so per-slice reads in hot loops do not allocate.
	scratch *bitvec.Vector
	// faultHook, when set, sees (and may corrupt) every completed DR
	// capture; see SetScanFaultHook.
	faultHook ScanFaultHook
}

// ScanFaultHook models a faulty TAP connection: it is invoked after each
// completed DR shift with the just-captured register contents and may
// mutate the vector (a corrupted capture — note that the ReadDR double
// scan then writes the corrupted value back to the device, exactly like
// a glitched shift on real hardware) or return an error (a failed
// shift). The chaos harness installs one to test the campaign driver's
// fault tolerance.
type ScanFaultHook func(captured *bitvec.Vector) error

// SetScanFaultHook installs (or, with nil, removes) the controller's
// scan fault hook.
func (c *Controller) SetScanFaultHook(h ScanFaultHook) { c.faultHook = h }

// ControllerState is the restorable state of the controller and its TAP:
// the state-machine position, the active instruction and the clock count.
// The DR shift register is transient (it only holds data mid-scan) and is
// cleared on restore.
type ControllerState struct {
	State  TAPState
	IR     Instruction
	Clocks uint64
}

// StateSnapshot captures the controller state for campaign checkpoints.
func (c *Controller) StateSnapshot() ControllerState {
	return ControllerState{State: c.tap.state, IR: c.tap.ir, Clocks: c.tap.clocks}
}

// RestoreState overwrites the controller state with a snapshot taken via
// StateSnapshot, discarding any in-flight shift data.
func (c *Controller) RestoreState(st ControllerState) {
	c.tap.state = st.State
	c.tap.ir = st.IR
	c.tap.clocks = st.Clocks
	c.tap.irShift = 0
	c.tap.dr = nil
}

// NewController returns a controller for the given device, with the TAP
// reset and parked in Run-Test/Idle.
func NewController(dev Device) *Controller {
	c := &Controller{tap: NewTAP(dev)}
	c.park()
	return c
}

// TAP exposes the underlying TAP for inspection in tests.
func (c *Controller) TAP() *TAP { return c.tap }

// Reset returns the controller to the exact state NewController leaves
// it in — TAP reset and parked in Run-Test/Idle with the clock count a
// fresh park produces, no fault hook, no in-flight shift — while
// keeping the allocated scratch shift vector. The per-experiment
// initTestCard path resets in place instead of allocating a new
// controller (and its multi-kilobit scratch) for every experiment.
func (c *Controller) Reset() {
	c.tap.Reset()
	c.tap.irShift = 0
	c.tap.clocks = 0
	c.faultHook = nil
	c.park()
}

// park drives the controller to Run-Test/Idle from any state.
func (c *Controller) park() {
	for i := 0; i < 5; i++ {
		c.tap.Clock(true, false) // five TMS=1 edges reach Test-Logic-Reset
	}
	c.tap.Clock(false, false) // -> Run-Test/Idle
}

// LoadInstruction shifts an instruction into the IR and activates it.
func (c *Controller) LoadInstruction(instr Instruction) {
	if c.tap.State() != RunTestIdle {
		c.park()
	}
	c.tap.Clock(true, false)  // -> Select-DR-Scan
	c.tap.Clock(true, false)  // -> Select-IR-Scan
	c.tap.Clock(false, false) // -> Capture-IR
	c.tap.Clock(false, false) // -> Shift-IR (no shift on this edge)
	for i := 0; i < irWidth; i++ {
		tdi := uint8(instr)&(1<<uint(i)) != 0
		last := i == irWidth-1
		c.tap.Clock(last, tdi) // shift; last edge exits to Exit1-IR
	}
	c.tap.Clock(true, false)  // -> Update-IR
	c.tap.Clock(false, false) // -> Run-Test/Idle
}

// ExchangeDR performs one full DR scan: it captures the data register,
// shifts it out while shifting in the replacement, and updates the device
// from the shifted-in value. It returns the captured (old) register
// contents. This one primitive implements the paper's
// readScanChain / injectFault / writeScanChain sequence: read with an
// exchange of the same data, or write by exchanging modified data.
func (c *Controller) ExchangeDR(in *bitvec.Vector) (*bitvec.Vector, error) {
	out := bitvec.New(c.tap.drLen())
	if err := c.ExchangeDRInto(in, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ExchangeDRInto is ExchangeDR writing the captured register contents
// into out (which must have the register length) instead of allocating.
// in and out may be the same vector: the capture overwrites each bit only
// after it was shifted in.
func (c *Controller) ExchangeDRInto(in, out *bitvec.Vector) error {
	n := c.tap.drLen()
	if in.Len() != n {
		return fmt.Errorf("scanchain: DR scan of %d bits with %d-bit input (instruction %v)",
			n, in.Len(), c.tap.ActiveInstruction())
	}
	if out.Len() != n {
		return fmt.Errorf("scanchain: DR scan of %d bits into %d-bit output (instruction %v)",
			n, out.Len(), c.tap.ActiveInstruction())
	}
	if c.tap.State() != RunTestIdle {
		c.park()
	}
	c.tap.Clock(true, false)  // -> Select-DR-Scan
	c.tap.Clock(false, false) // -> Capture-DR
	c.tap.Clock(false, false) // -> Shift-DR (no shift on this edge)
	// n shift edges, word-at-a-time; the last edge exits to Exit1-DR.
	if err := c.tap.BulkShiftDR(in, out); err != nil {
		return err
	}
	mExchanges.Inc()
	mBitsShifted.Add(uint64(n))
	if c.faultHook != nil {
		if err := c.faultHook(out); err != nil {
			return fmt.Errorf("scanchain: DR scan (instruction %v): %w",
				c.tap.ActiveInstruction(), err)
		}
	}
	c.tap.Clock(true, false)  // -> Update-DR
	c.tap.Clock(false, false) // -> Run-Test/Idle
	return nil
}

// ReadDR captures and reads the active data register without changing it:
// it scans the register out and then scans the same value back in, so the
// device state after Update-DR equals what was captured.
func (c *Controller) ReadDR() (*bitvec.Vector, error) {
	out := bitvec.New(c.tap.drLen())
	if err := c.ReadDRInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadDRInto is ReadDR writing into a caller-provided vector, reusing the
// controller's scratch shift vector so the double scan does not allocate.
func (c *Controller) ReadDRInto(out *bitvec.Vector) error {
	s := c.scratchDR()
	s.Clear()
	// First pass shifts zeros in to learn the contents...
	if err := c.ExchangeDRInto(s, out); err != nil {
		return err
	}
	// ...then restores them. Real SCIFI tools do the same double scan
	// when a read must not perturb state. The second capture lands in
	// the scratch vector and is discarded.
	return c.ExchangeDRInto(out, s)
}

// scratchDR returns the controller's scratch shift vector, sized for the
// active data register.
func (c *Controller) scratchDR() *bitvec.Vector {
	if n := c.tap.drLen(); c.scratch == nil || c.scratch.Len() != n {
		c.scratch = bitvec.New(n)
	}
	return c.scratch
}

// WriteDR replaces the active data register contents. The capture the
// exchange makes lands in the scratch vector and is discarded.
func (c *Controller) WriteDR(v *bitvec.Vector) error {
	return c.ExchangeDRInto(v, c.scratchDR())
}

// ReadIDCode reads the device identification register.
func (c *Controller) ReadIDCode() (uint32, error) {
	c.LoadInstruction(InstrIDCode)
	v, err := c.ExchangeDR(bitvec.New(32))
	if err != nil {
		return 0, err
	}
	return uint32(v.Uint64(0, 32)), nil
}

// ReadInternal reads the device's internal scan chain non-destructively.
func (c *Controller) ReadInternal() (*bitvec.Vector, error) {
	c.LoadInstruction(InstrScanReg)
	return c.ReadDR()
}

// ReadInternalInto reads the internal scan chain non-destructively into a
// caller-provided vector, the allocation-free variant of ReadInternal for
// hot loops (per-slice persistent-fault reassertion).
func (c *Controller) ReadInternalInto(v *bitvec.Vector) error {
	c.LoadInstruction(InstrScanReg)
	return c.ReadDRInto(v)
}

// WriteInternal writes the device's internal scan chain.
func (c *Controller) WriteInternal(v *bitvec.Vector) error {
	c.LoadInstruction(InstrScanReg)
	return c.WriteDR(v)
}

// SampleBoundary samples the pins without disturbing them.
func (c *Controller) SampleBoundary() (*bitvec.Vector, error) {
	c.LoadInstruction(InstrSample)
	v, err := c.ExchangeDR(bitvec.New(c.tap.dev.BoundaryLen()))
	if err != nil {
		return nil, err
	}
	return v, nil
}
