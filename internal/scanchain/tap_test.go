package scanchain

import (
	"strings"
	"testing"

	"goofi/internal/bitvec"
)

// fakeDevice is a minimal Device with an 8-bit boundary and a 12-bit
// internal chain backed by plain vectors.
type fakeDevice struct {
	boundary  *bitvec.Vector
	internal  *bitvec.Vector
	idcode    uint32
	intUpdate int
}

func newFakeDevice() *fakeDevice {
	return &fakeDevice{
		boundary: bitvec.FromUint64(0xA5, 8),
		internal: bitvec.FromUint64(0x3CF, 12),
		idcode:   0x1234_5678,
	}
}

func (d *fakeDevice) BoundaryLen() int                           { return 8 }
func (d *fakeDevice) CaptureBoundary() *bitvec.Vector            { return d.boundary.Clone() }
func (d *fakeDevice) InternalLen() int                           { return 12 }
func (d *fakeDevice) CaptureInternalInto(v *bitvec.Vector) error { return v.CopyFrom(d.internal) }
func (d *fakeDevice) IDCode() uint32                             { return d.idcode }

func (d *fakeDevice) UpdateInternal(v *bitvec.Vector) error {
	d.intUpdate++
	return d.internal.CopyFrom(v)
}

func TestTAPResetState(t *testing.T) {
	tap := NewTAP(newFakeDevice())
	if tap.State() != TestLogicReset {
		t.Errorf("initial state = %v, want Test-Logic-Reset", tap.State())
	}
	if tap.ActiveInstruction() != InstrIDCode {
		t.Errorf("initial instruction = %v, want IDCODE", tap.ActiveInstruction())
	}
}

func TestTAPStateDiagramWalk(t *testing.T) {
	tap := NewTAP(newFakeDevice())
	// TLR -0-> RTI -1-> SelDR -0-> CapDR -0-> ShiftDR -1-> Exit1DR
	// -0-> PauseDR -1-> Exit2DR -0-> ShiftDR -1-> Exit1DR -1-> UpdateDR -0-> RTI
	steps := []struct {
		tms  bool
		want TAPState
	}{
		{false, RunTestIdle},
		{true, SelectDRScan},
		{false, CaptureDR},
		{false, ShiftDR},
		{true, Exit1DR},
		{false, PauseDR},
		{true, Exit2DR},
		{false, ShiftDR},
		{true, Exit1DR},
		{true, UpdateDR},
		{false, RunTestIdle},
		{true, SelectDRScan},
		{true, SelectIRScan},
		{false, CaptureIR},
		{false, ShiftIR},
		{true, Exit1IR},
		{false, PauseIR},
		{true, Exit2IR},
		{true, UpdateIR},
		{true, SelectDRScan},
		{true, SelectIRScan},
		{true, TestLogicReset},
	}
	for i, s := range steps {
		tap.Clock(s.tms, false)
		if tap.State() != s.want {
			t.Fatalf("step %d: state = %v, want %v", i, tap.State(), s.want)
		}
	}
}

func TestTAPFiveOnesResetsFromAnywhere(t *testing.T) {
	tap := NewTAP(newFakeDevice())
	// Wander into Shift-DR.
	for _, tms := range []bool{false, true, false, false} {
		tap.Clock(tms, false)
	}
	if tap.State() != ShiftDR {
		t.Fatalf("setup failed, state = %v", tap.State())
	}
	for i := 0; i < 5; i++ {
		tap.Clock(true, false)
	}
	if tap.State() != TestLogicReset {
		t.Errorf("state after 5×TMS=1 = %v, want Test-Logic-Reset", tap.State())
	}
	// The property that defines the diagram, over the whole table: five
	// TMS-high edges from any state, and one from no state at all.
	for s := TestLogicReset; s <= UpdateIR+1; s++ {
		at := s
		for i := 0; i < 5; i++ {
			at = at.next(true)
		}
		if at != TestLogicReset {
			t.Errorf("%v: state after 5×TMS=1 = %v, want Test-Logic-Reset", s, at)
		}
	}
}

func TestReadIDCode(t *testing.T) {
	dev := newFakeDevice()
	c := NewController(dev)
	id, err := c.ReadIDCode()
	if err != nil {
		t.Fatal(err)
	}
	if id != dev.idcode {
		t.Errorf("IDCODE = %#x, want %#x", id, dev.idcode)
	}
}

func TestBypassIsOneBitDelay(t *testing.T) {
	c := NewController(newFakeDevice())
	c.LoadInstruction(InstrBypass)
	// Exchange a known pattern through the 1-bit bypass register: the
	// output must be the input delayed by exactly one bit (first bit out
	// is the captured bypass bit, 0).
	in := bitvec.FromUint64(0b1, 1)
	out, err := c.ExchangeDR(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Get(0) {
		t.Error("bypass captured bit should be 0")
	}
}

func TestInternalReadNonDestructive(t *testing.T) {
	dev := newFakeDevice()
	c := NewController(dev)
	before := dev.internal.Clone()
	v, err := c.ReadInternal()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(before) {
		t.Errorf("read %v, device had %v", v, before)
	}
	if !dev.internal.Equal(before) {
		t.Errorf("ReadInternal perturbed device state: %v -> %v", before, dev.internal)
	}
}

func TestInternalWriteAppliesVector(t *testing.T) {
	dev := newFakeDevice()
	c := NewController(dev)
	want := bitvec.FromUint64(0x0F0, 12)
	if err := c.WriteInternal(want); err != nil {
		t.Fatal(err)
	}
	if !dev.internal.Equal(want) {
		t.Errorf("device internal = %v, want %v", dev.internal, want)
	}
	if dev.intUpdate == 0 {
		t.Error("UpdateInternal never called")
	}
}

func TestReadModifyWriteInjection(t *testing.T) {
	// The SCIFI primitive: read the chain, flip one bit, write it back.
	dev := newFakeDevice()
	c := NewController(dev)
	v, err := c.ReadInternal()
	if err != nil {
		t.Fatal(err)
	}
	v.Flip(5)
	if err := c.WriteInternal(v); err != nil {
		t.Fatal(err)
	}
	want := bitvec.FromUint64(0x3CF^(1<<5), 12)
	if !dev.internal.Equal(want) {
		t.Errorf("device internal = %v, want %v", dev.internal, want)
	}
}

func TestSampleBoundary(t *testing.T) {
	dev := newFakeDevice()
	c := NewController(dev)
	v, err := c.SampleBoundary()
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Uint64(0, 8); got != 0xA5 {
		t.Errorf("sampled boundary = %#x, want 0xa5", got)
	}
	if got := dev.boundary.Uint64(0, 8); got != 0xA5 {
		t.Errorf("boundary after SAMPLE = %#x: SAMPLE must not drive pins", got)
	}
}

func TestExchangeDRLengthMismatch(t *testing.T) {
	c := NewController(newFakeDevice())
	c.LoadInstruction(InstrScanReg)
	if _, err := c.ExchangeDR(bitvec.New(5)); err == nil {
		t.Error("ExchangeDR with wrong length did not error")
	}
}

func TestInstructionStrings(t *testing.T) {
	for instr, want := range map[Instruction]string{
		InstrExtest:  "EXTEST",
		InstrSample:  "SAMPLE",
		InstrScanReg: "SCANREG",
		InstrIDCode:  "IDCODE",
		InstrBypass:  "BYPASS",
	} {
		if instr.String() != want {
			t.Errorf("%v.String() = %q, want %q", uint8(instr), instr, want)
		}
	}
	if !strings.Contains(Instruction(0x9).String(), "0x9") {
		t.Errorf("unknown instruction string = %q", Instruction(0x9))
	}
}

func TestStateStrings(t *testing.T) {
	if TestLogicReset.String() != "Test-Logic-Reset" {
		t.Errorf("state name = %q", TestLogicReset)
	}
	if !strings.Contains(TAPState(99).String(), "99") {
		t.Errorf("unknown state = %q", TAPState(99))
	}
}

func TestClockCounting(t *testing.T) {
	dev := newFakeDevice()
	c := NewController(dev)
	before := c.TAP().Clocks()
	if _, err := c.ReadInternal(); err != nil {
		t.Fatal(err)
	}
	// Read = load IR + two full 12-bit DR scans; must cost clocks
	// proportional to chain length.
	delta := c.TAP().Clocks() - before
	if delta < 2*12 {
		t.Errorf("ReadInternal used %d clocks, expected at least 24", delta)
	}
}
