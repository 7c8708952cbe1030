// Package scanchain implements IEEE 1149.1-style test logic: a TAP
// controller state machine, an instruction register, and boundary/internal
// scan chains over a device. GOOFI's SCIFI technique injects faults by
// shifting device state out through this logic, flipping bits, and shifting
// it back (paper §1, §3.3).
package scanchain

import (
	"fmt"

	"goofi/internal/bitvec"
)

// TAPState is a state of the IEEE 1149.1 TAP controller.
type TAPState int

// The sixteen TAP controller states.
const (
	TestLogicReset TAPState = iota
	RunTestIdle
	SelectDRScan
	CaptureDR
	ShiftDR
	Exit1DR
	PauseDR
	Exit2DR
	UpdateDR
	SelectIRScan
	CaptureIR
	ShiftIR
	Exit1IR
	PauseIR
	Exit2IR
	UpdateIR
)

var tapStateNames = map[TAPState]string{
	TestLogicReset: "Test-Logic-Reset",
	RunTestIdle:    "Run-Test/Idle",
	SelectDRScan:   "Select-DR-Scan",
	CaptureDR:      "Capture-DR",
	ShiftDR:        "Shift-DR",
	Exit1DR:        "Exit1-DR",
	PauseDR:        "Pause-DR",
	Exit2DR:        "Exit2-DR",
	UpdateDR:       "Update-DR",
	SelectIRScan:   "Select-IR-Scan",
	CaptureIR:      "Capture-IR",
	ShiftIR:        "Shift-IR",
	Exit1IR:        "Exit1-IR",
	PauseIR:        "Pause-IR",
	Exit2IR:        "Exit2-IR",
	UpdateIR:       "Update-IR",
}

// String returns the standard state name.
func (s TAPState) String() string {
	if n, ok := tapStateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("TAPState(%d)", int(s))
}

// tapTransitions is the IEEE 1149.1 state diagram: the state after one TCK
// rising edge, indexed by the state before it and by TMS (0 low, 1 high).
// A controller takes about sixty edges per emulated experiment, so the
// diagram is an array, not a map.
var tapTransitions = [16][2]TAPState{
	TestLogicReset: {RunTestIdle, TestLogicReset},
	RunTestIdle:    {RunTestIdle, SelectDRScan},
	SelectDRScan:   {CaptureDR, SelectIRScan},
	CaptureDR:      {ShiftDR, Exit1DR},
	ShiftDR:        {ShiftDR, Exit1DR},
	Exit1DR:        {PauseDR, UpdateDR},
	PauseDR:        {PauseDR, Exit2DR},
	Exit2DR:        {ShiftDR, UpdateDR},
	UpdateDR:       {RunTestIdle, SelectDRScan},
	SelectIRScan:   {CaptureIR, TestLogicReset},
	CaptureIR:      {ShiftIR, Exit1IR},
	ShiftIR:        {ShiftIR, Exit1IR},
	Exit1IR:        {PauseIR, UpdateIR},
	PauseIR:        {PauseIR, Exit2IR},
	Exit2IR:        {ShiftIR, UpdateIR},
	UpdateIR:       {RunTestIdle, SelectDRScan},
}

// next computes the TAP state transition for one TCK rising edge with the
// given TMS value. A value that is none of the sixteen states goes to
// Test-Logic-Reset.
func (s TAPState) next(tms bool) TAPState {
	if uint(s) >= uint(len(tapTransitions)) {
		return TestLogicReset
	}
	if tms {
		return tapTransitions[s][1]
	}
	return tapTransitions[s][0]
}

// Instruction is a TAP instruction register code.
type Instruction uint8

// TAP instructions. The instruction register is irWidth bits wide.
const (
	// InstrExtest selects the boundary register, like SAMPLE. Its update
	// drives no pin here: pin-level faults are forced through the CPU
	// model's boundary write (thor.CPU.BoundaryWrite), not the TAP.
	InstrExtest Instruction = 0x0
	// InstrSample selects the boundary register for capture without
	// driving pins (observation).
	InstrSample Instruction = 0x1
	// InstrScanReg selects the internal scan chain over the device's
	// state elements (the SCIFI injection path).
	InstrScanReg Instruction = 0x2
	// InstrIDCode selects the 32-bit device identification register.
	InstrIDCode Instruction = 0x3
	// InstrBypass selects the single-bit bypass register. All-ones, as
	// the standard requires.
	InstrBypass Instruction = 0xF
)

const irWidth = 4

// String returns the instruction mnemonic.
func (i Instruction) String() string {
	switch i {
	case InstrExtest:
		return "EXTEST"
	case InstrSample:
		return "SAMPLE"
	case InstrScanReg:
		return "SCANREG"
	case InstrIDCode:
		return "IDCODE"
	case InstrBypass:
		return "BYPASS"
	default:
		return fmt.Sprintf("IR(%#x)", uint8(i))
	}
}

// Device is the circuit behind a TAP: it exposes a boundary register over
// its pins and an internal scan chain over its state elements.
type Device interface {
	// BoundaryLen returns the boundary register length in bits.
	BoundaryLen() int
	// CaptureBoundary samples the pins into a bit vector.
	CaptureBoundary() *bitvec.Vector
	// InternalLen returns the internal scan chain length in bits.
	InternalLen() int
	// CaptureInternalInto fills v (length InternalLen) with the internal
	// state elements. The TAP captures into its SCANREG register, whose
	// storage it keeps across scans: a campaign scans the internal chain
	// every slice, and no scan allocates a vector.
	CaptureInternalInto(v *bitvec.Vector) error
	// UpdateInternal applies a vector back to the state elements.
	UpdateInternal(v *bitvec.Vector) error
	// IDCode returns the 32-bit JTAG identification code.
	IDCode() uint32
}

// TAP is an IEEE 1149.1 TAP controller bound to a device. Clock advances
// it one TCK rising edge at a time; higher-level sequencing lives in
// Controller. The zero value is unusable; use NewTAP.
type TAP struct {
	dev     Device
	state   TAPState
	ir      Instruction    // active instruction (updated in Update-IR)
	irShift uint8          // IR shift register
	dr      *bitvec.Vector // DR shift register for the active instruction
	clocks  uint64
	// scanReg is the storage of the SCANREG register, which a capture into
	// it fills whole. Reset and RestoreState drop dr but keep this, so the
	// first capture after them does not allocate a multi-kilobit vector.
	scanReg *bitvec.Vector
}

// NewTAP returns a TAP in Test-Logic-Reset with IDCODE selected, as the
// standard requires after reset.
func NewTAP(dev Device) *TAP {
	t := &TAP{dev: dev}
	t.Reset()
	return t
}

// Reset forces the controller into Test-Logic-Reset (equivalent to five
// TCK cycles with TMS high, or asserting TRST).
func (t *TAP) Reset() {
	t.state = TestLogicReset
	t.ir = InstrIDCode
	t.dr = nil
}

// State returns the current controller state.
func (t *TAP) State() TAPState { return t.state }

// ActiveInstruction returns the instruction currently in effect.
func (t *TAP) ActiveInstruction() Instruction { return t.ir }

// Clocks returns the number of TCK cycles applied since construction.
func (t *TAP) Clocks() uint64 { return t.clocks }

// drLen returns the data register length for the active instruction.
func (t *TAP) drLen() int {
	switch t.ir {
	case InstrExtest, InstrSample:
		return t.dev.BoundaryLen()
	case InstrScanReg:
		return t.dev.InternalLen()
	case InstrIDCode:
		return 32
	default:
		return 1 // BYPASS and unknown instructions
	}
}

// Clock applies one TCK rising edge with the given TMS and TDI values and
// returns TDO. TDO carries shift data only while in Shift-DR or Shift-IR,
// matching hardware where TDO is otherwise tri-stated (reads as false).
func (t *TAP) Clock(tms, tdi bool) (tdo bool) {
	t.clocks++
	// Shift happens while in a shift state at the clock edge.
	switch t.state {
	case ShiftDR:
		if t.dr != nil {
			tdo = t.dr.ShiftIn(tdi)
		}
	case ShiftIR:
		tdo = t.irShift&1 != 0
		t.irShift = t.irShift>>1 | boolShift(tdi, irWidth-1)
	}
	prev := t.state
	t.state = prev.next(tms)
	// Entry actions.
	if t.state != prev {
		switch t.state {
		case CaptureDR:
			t.captureDR()
		case UpdateDR:
			t.updateDR()
		case CaptureIR:
			// The standard captures 0b01 in the low bits; with a
			// 4-bit IR we capture 0b0101 for fault visibility.
			t.irShift = 0x5
		case UpdateIR:
			t.ir = Instruction(t.irShift & (1<<irWidth - 1))
		case TestLogicReset:
			t.ir = InstrIDCode
		}
	}
	return tdo
}

// BulkShiftDR applies exactly n = in.Len() Shift-DR clock edges at word
// granularity: the first n-1 with TMS low (staying in Shift-DR), the
// last with TMS high (exiting to Exit1-DR). It requires the controller
// to be in Shift-DR with a data register of the same length, where n
// single Clock calls reduce to "out receives the captured register, the
// register receives in" — observationally identical, including the TCK
// count, but O(n/64) instead of O(n²/64). in and out may alias.
func (t *TAP) BulkShiftDR(in, out *bitvec.Vector) error {
	n := in.Len()
	if t.state != ShiftDR {
		return fmt.Errorf("scanchain: bulk shift in state %v, want Shift-DR", t.state)
	}
	if out.Len() != n {
		return fmt.Errorf("scanchain: bulk shift of %d bits into %d-bit output", n, out.Len())
	}
	if t.dr == nil || t.dr.Len() != n {
		// Degenerate register (BYPASS against a longer stream, or no DR
		// at all): fall back to bit-serial clocking.
		for i := 0; i < n; i++ {
			out.Set(i, t.Clock(i == n-1, in.Get(i)))
		}
		return nil
	}
	if in == out {
		// A full-length exchange through the same vector is a swap with
		// the shift register.
		if err := t.dr.Swap(in); err != nil {
			return err
		}
	} else {
		if err := out.CopyFrom(t.dr); err != nil {
			return err
		}
		if err := t.dr.CopyFrom(in); err != nil {
			return err
		}
	}
	t.clocks += uint64(n)
	t.state = Exit1DR
	return nil
}

func (t *TAP) captureDR() {
	switch t.ir {
	case InstrExtest, InstrSample:
		t.dr = t.dev.CaptureBoundary()
	case InstrScanReg:
		if t.scanReg == nil || t.scanReg.Len() != t.dev.InternalLen() {
			t.scanReg = bitvec.New(t.dev.InternalLen())
		}
		t.dr = t.scanReg
		if err := t.dev.CaptureInternalInto(t.dr); err != nil {
			panic(fmt.Sprintf("scanchain: SCANREG capture failed: %v", err))
		}
	case InstrIDCode:
		t.dr = bitvec.FromUint64(uint64(t.dev.IDCode()), 32)
	default:
		t.dr = bitvec.New(1)
	}
}

func (t *TAP) updateDR() {
	if t.dr == nil {
		return
	}
	if t.ir == InstrScanReg {
		if err := t.dev.UpdateInternal(t.dr); err != nil {
			panic(fmt.Sprintf("scanchain: SCANREG update failed: %v", err))
		}
	}
}

func boolShift(b bool, pos int) uint8 {
	if b {
		return 1 << uint(pos)
	}
	return 0
}
