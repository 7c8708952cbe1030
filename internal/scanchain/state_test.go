package scanchain

import (
	"testing"

	"goofi/internal/bitvec"
)

// fakeDev is a minimal device with a mutable 64-bit internal chain. It
// captures and updates in place, so a scan through it allocates only what
// the controller and its TAP do.
type fakeDev struct {
	internal *bitvec.Vector
}

func newFakeDev() *fakeDev {
	return &fakeDev{internal: bitvec.FromUint64(0xDEAD_BEEF_0BAD_F00D, 64)}
}

func (d *fakeDev) BoundaryLen() int                { return 8 }
func (d *fakeDev) CaptureBoundary() *bitvec.Vector { return bitvec.New(8) }
func (d *fakeDev) InternalLen() int                { return 64 }
func (d *fakeDev) IDCode() uint32                  { return 0x1234_5678 }

func (d *fakeDev) CaptureInternalInto(v *bitvec.Vector) error { return v.CopyFrom(d.internal) }
func (d *fakeDev) UpdateInternal(v *bitvec.Vector) error      { return d.internal.CopyFrom(v) }

// TestResetAndRestoreKeepScanRegister: Reset and RestoreState drop the
// data register's contents but keep its storage, and WriteDR's capture
// lands in the scratch vector. A controller that went through either
// still reads the same bits, leaves the device in the same state, counts
// the same TCKs and snapshots the same state as a fresh one making the same
// scans — and a write and a read of the internal chain after it allocate
// nothing.
func TestResetAndRestoreKeepScanRegister(t *testing.T) {
	const start, pattern = 0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210
	for _, how := range []string{"reset", "restore"} {
		t.Run(how, func(t *testing.T) {
			dev := newFakeDev()
			c := NewController(dev)
			parked := c.StateSnapshot()
			// Dirty everything a campaign touches: the SCANREG register,
			// the scratch vector, another instruction's register, a TAP
			// left outside Run-Test/Idle.
			out := bitvec.New(64)
			if err := c.WriteInternal(bitvec.FromUint64(start, 64)); err != nil {
				t.Fatal(err)
			}
			if err := c.ReadInternalInto(out); err != nil {
				t.Fatal(err)
			}
			if _, err := c.SampleBoundary(); err != nil {
				t.Fatal(err)
			}
			if err := c.ReadInternalInto(out); err != nil {
				t.Fatal(err)
			}
			c.tap.Clock(true, false)
			again := func() {
				if how == "reset" {
					c.Reset()
				} else {
					c.RestoreState(parked)
				}
			}
			again()
			if c.tap.dr != nil {
				t.Fatalf("%s left shift data in the data register", how)
			}

			freshDev := newFakeDev()
			freshDev.internal = bitvec.FromUint64(start, 64)
			fresh := NewController(freshDev)
			for i, drive := range []func(*Controller) error{
				func(c *Controller) error { return c.ReadInternalInto(out) },
				func(c *Controller) error { return c.WriteInternal(bitvec.FromUint64(pattern, 64)) },
				func(c *Controller) error { return c.ReadInternalInto(out) },
			} {
				if err := drive(c); err != nil {
					t.Fatal(err)
				}
				got := out.Clone()
				if err := drive(fresh); err != nil {
					t.Fatal(err)
				}
				if !got.Equal(out) {
					t.Fatalf("scan %d: read %v after %s, %v fresh", i, got, how, out)
				}
				if !dev.internal.Equal(freshDev.internal) {
					t.Fatalf("scan %d: device holds %v after %s, %v fresh", i, dev.internal, how, freshDev.internal)
				}
				if a, b := c.StateSnapshot(), fresh.StateSnapshot(); a != b {
					t.Fatalf("scan %d: state %+v after %s, %+v fresh", i, a, how, b)
				}
			}
			if out.Uint64(0, 64) != pattern {
				t.Fatalf("read back %#x, wrote %#x", out.Uint64(0, 64), uint64(pattern))
			}

			in := bitvec.FromUint64(pattern, 64)
			if n := testing.AllocsPerRun(20, func() {
				again()
				if err := c.WriteInternal(in); err != nil {
					t.Fatal(err)
				}
				if err := c.ReadInternalInto(out); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("%s, write and read allocate %.1f times, want 0", how, n)
			}
		})
	}
}

func TestControllerStateSnapshotRestore(t *testing.T) {
	c := NewController(newFakeDev())
	c.LoadInstruction(InstrScanReg)
	st := c.StateSnapshot()
	if st.IR != InstrScanReg || st.State != RunTestIdle {
		t.Fatalf("snapshot = %+v", st)
	}

	// Disturb the controller, then restore.
	c.LoadInstruction(InstrBypass)
	if _, err := c.ExchangeDR(bitvec.New(1)); err != nil {
		t.Fatal(err)
	}
	c.RestoreState(st)
	if got := c.TAP().ActiveInstruction(); got != InstrScanReg {
		t.Errorf("restored IR = %v, want SCANREG", got)
	}
	if got := c.TAP().State(); got != RunTestIdle {
		t.Errorf("restored state = %v, want Run-Test/Idle", got)
	}
	if got := c.TAP().Clocks(); got != st.Clocks {
		t.Errorf("restored clocks = %d, want %d", got, st.Clocks)
	}
	// The restored controller must still scan correctly.
	v, err := c.ReadDR()
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 64 {
		t.Errorf("post-restore DR length = %d, want 64", v.Len())
	}
}

func TestReadDRIntoMatchesReadDR(t *testing.T) {
	c := NewController(newFakeDev())
	c.LoadInstruction(InstrScanReg)
	want, err := c.ReadDR()
	if err != nil {
		t.Fatal(err)
	}
	out := bitvec.New(64)
	for i := 0; i < 3; i++ {
		if err := c.ReadDRInto(out); err != nil {
			t.Fatal(err)
		}
		if !out.Equal(want) {
			t.Fatalf("pass %d: ReadDRInto = %v, ReadDR = %v", i, out, want)
		}
	}
	// The read is non-destructive: the device still holds the original
	// value.
	if got, err := c.ReadInternal(); err != nil || !got.Equal(want) {
		t.Errorf("device state perturbed by ReadDRInto: %v (%v)", got, err)
	}
}

func TestReadInternalIntoRoundTrip(t *testing.T) {
	c := NewController(newFakeDev())
	out := bitvec.New(64)
	if err := c.ReadInternalInto(out); err != nil {
		t.Fatal(err)
	}
	if out.Uint64(0, 64) != 0xDEAD_BEEF_0BAD_F00D {
		t.Errorf("ReadInternalInto = %#x", out.Uint64(0, 64))
	}
	// Wrong-length destination is rejected, not resized.
	if err := c.ReadDRInto(bitvec.New(63)); err == nil {
		t.Error("ReadDRInto accepted a 63-bit vector for a 64-bit chain")
	}
}

// TestBulkShiftMatchesBitSerial pins the word-level Shift-DR fast path
// to the bit-serial reference: the same scan driven through the
// Controller (bulk path) and through manual per-edge Clock calls must
// produce the same captured data, device state, and TCK count.
func TestBulkShiftMatchesBitSerial(t *testing.T) {
	devA, devB := newFakeDev(), newFakeDev()
	ctrl := NewController(devA)
	tapB := NewTAP(devB)

	// Manual path, replicating the controller's exact edge sequence.
	for i := 0; i < 5; i++ {
		tapB.Clock(true, false)
	}
	tapB.Clock(false, false) // park in Run-Test/Idle
	tapB.Clock(true, false)  // -> Select-DR-Scan
	tapB.Clock(true, false)  // -> Select-IR-Scan
	tapB.Clock(false, false) // -> Capture-IR
	tapB.Clock(false, false) // -> Shift-IR
	for i := 0; i < 4; i++ {
		tapB.Clock(i == 3, uint8(InstrScanReg)&(1<<uint(i)) != 0)
	}
	tapB.Clock(true, false)  // -> Update-IR
	tapB.Clock(false, false) // -> Run-Test/Idle
	tapB.Clock(true, false)  // -> Select-DR-Scan
	tapB.Clock(false, false) // -> Capture-DR
	tapB.Clock(false, false) // -> Shift-DR
	in := bitvec.FromUint64(0x0123_4567_89AB_CDEF, 64)
	outB := bitvec.New(64)
	for i := 0; i < 64; i++ {
		outB.Set(i, tapB.Clock(i == 63, in.Get(i)))
	}
	tapB.Clock(true, false)  // -> Update-DR
	tapB.Clock(false, false) // -> Run-Test/Idle

	// Bulk path through the controller.
	ctrl.LoadInstruction(InstrScanReg)
	outA, err := ctrl.ExchangeDR(in.Clone())
	if err != nil {
		t.Fatal(err)
	}

	if !outA.Equal(outB) {
		t.Errorf("captured data differs: bulk %v, bit-serial %v", outA, outB)
	}
	if !devA.internal.Equal(devB.internal) {
		t.Errorf("device state differs: bulk %v, bit-serial %v", devA.internal, devB.internal)
	}
	if a, b := ctrl.TAP().Clocks(), tapB.Clocks(); a != b {
		t.Errorf("TCK count differs: bulk %d, bit-serial %d", a, b)
	}
}

// TestControllerResetMatchesFresh pins Controller.Reset to byte-for-byte
// fresh-controller semantics: same TAP state, instruction, in-flight
// shift registers, clock count (which lands in checkpoint snapshots via
// StateSnapshot), and no lingering fault hook — while keeping the
// allocated scratch vector.
func TestControllerResetMatchesFresh(t *testing.T) {
	dev := newFakeDevice()
	c := NewController(dev)
	// Dirty every piece of controller state a campaign can touch.
	if _, err := c.ReadInternal(); err != nil {
		t.Fatal(err)
	}
	c.SetScanFaultHook(func(v *bitvec.Vector) error { return nil })
	c.tap.Clock(true, false) // leave Run-Test/Idle mid-sequence
	c.Reset()

	fresh := NewController(newFakeDevice())
	if got, want := c.StateSnapshot(), fresh.StateSnapshot(); got != want {
		t.Fatalf("reset state %+v != fresh state %+v", got, want)
	}
	if c.faultHook != nil {
		t.Fatal("fault hook survived Reset")
	}
	if c.tap.irShift != 0 || c.tap.dr != nil {
		t.Fatal("in-flight shift state survived Reset")
	}
	if c.scratch == nil {
		t.Fatal("scratch vector was dropped by Reset (defeats the reuse)")
	}
	// And the reset controller must still drive scans identically.
	a, err := c.ReadInternal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.ReadInternal()
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("post-reset scan differs from fresh controller scan")
	}
}
