package thor

import (
	"fmt"

	"goofi/internal/bitvec"
)

// ScanField describes one named cell group in the internal scan chain: a
// register, a flag, or a cache array element. The configuration phase
// (paper Fig 5) presents these names and positions to the user; read-only
// cells can be observed but not injected.
type ScanField struct {
	Name     string
	Offset   int // bit offset within the chain
	Width    int // bits
	ReadOnly bool
}

// End returns the first bit offset after the field.
func (f ScanField) End() int { return f.Offset + f.Width }

const (
	flagsWidth   = 4
	tagWidth     = 16
	counterWidth = 48
)

// scanLayout is built once; the layout of a CPU's internal scan chain is a
// property of the silicon, not of an instance.
var scanLayout = buildScanLayout()

func buildScanLayout() []ScanField {
	var fields []ScanField
	off := 0
	add := func(name string, width int, ro bool) {
		fields = append(fields, ScanField{Name: name, Offset: off, Width: width, ReadOnly: ro})
		off += width
	}
	for i := 0; i < NumRegs; i++ {
		add(fmt.Sprintf("cpu.r%d", i), 32, false)
	}
	add("cpu.pc", 32, false)
	add("cpu.ccr", flagsWidth, false)
	for _, ca := range []string{"icache", "dcache"} {
		for l := 0; l < CacheLines; l++ {
			add(fmt.Sprintf("%s.line%d.valid", ca, l), 1, false)
			add(fmt.Sprintf("%s.line%d.tag", ca, l), tagWidth, false)
			for w := 0; w < CacheWordsPerLine; w++ {
				add(fmt.Sprintf("%s.line%d.word%d", ca, l, w), 32, false)
			}
			for w := 0; w < CacheWordsPerLine; w++ {
				add(fmt.Sprintf("%s.line%d.parity%d", ca, l, w), 1, false)
			}
		}
	}
	add("cpu.cycle", counterWidth, true)
	add("cpu.instret", counterWidth, true)
	return fields
}

// ScanLayout returns the named fields of the internal scan chain in chain
// order. The returned slice must not be modified.
func ScanLayout() []ScanField { return scanLayout }

// ScanLen returns the total internal scan chain length in bits.
func ScanLen() int {
	last := scanLayout[len(scanLayout)-1]
	return last.End()
}

// ScanFieldByName returns the named field.
func ScanFieldByName(name string) (ScanField, error) {
	for _, f := range scanLayout {
		if f.Name == name {
			return f, nil
		}
	}
	return ScanField{}, fmt.Errorf("thor: no scan field named %q", name)
}

// ScanRead captures the internal state into a bit vector laid out per
// ScanLayout. This is the readScanChain building block of the paper's
// SCIFI algorithm.
func (c *CPU) ScanRead() *bitvec.Vector {
	v := bitvec.New(ScanLen())
	if err := c.ScanReadInto(v); err != nil {
		panic(err) // length is correct by construction
	}
	return v
}

// ScanReadInto captures the internal state into v, which must have length
// ScanLen. It is the allocation-free variant of ScanRead and the one
// implementation of capture: every Capture-DR of the internal chain ends
// here (five per emulated experiment, one per slice of a persistent fault,
// one per instruction in detail mode).
//
// The state is streamed in chain order through a bitvec.Writer, so each of
// the vector's 85 words is stored once. Neighbouring scanLayout fields that
// fit 64 bits together go in one Put — two registers, pc with ccr, a cache
// line's valid bit with its tag, two data words, the four parity bits —
// which makes 139 Puts of the 340 fields. This sequence and buildScanLayout
// describe one chain twice: Flush checks on every capture that the widths
// add up to the chain's length, and the tests hold the order, field by
// field, against a walk of scanLayout (TestScanPackFollowsLayout,
// TestScanPackMatchesLayoutWalk, FuzzScanPack).
func (c *CPU) ScanReadInto(v *bitvec.Vector) error {
	if v.Len() != ScanLen() {
		return fmt.Errorf("thor: scan vector length %d != chain length %d", v.Len(), ScanLen())
	}
	w := v.Writer()
	for r := 0; r < NumRegs; r += 2 { // cpu.r<r>, cpu.r<r+1>
		w = w.Put(64, uint64(c.Regs[r])|uint64(c.Regs[r+1])<<32)
	}
	// cpu.pc, cpu.ccr
	w = w.Put(32+flagsWidth, uint64(c.PC)|uint64(flagsToBits(c.Flags))<<32)
	for _, ca := range [...]*cache{&c.icache, &c.dcache} {
		for l := range ca.lines {
			ln := &ca.lines[l]
			// .valid, .tag: the cells hold the tag's low 16 bits
			w = w.Put(1+tagWidth, boolBit(ln.valid)|uint64(ln.tag&(1<<tagWidth-1))<<1)
			// .word0 to .word3
			w = w.Put(64, uint64(ln.data[0])|uint64(ln.data[1])<<32)
			w = w.Put(64, uint64(ln.data[2])|uint64(ln.data[3])<<32)
			// .parity0 to .parity3
			w = w.Put(CacheWordsPerLine, boolBit(ln.parity[0])|boolBit(ln.parity[1])<<1|
				boolBit(ln.parity[2])<<2|boolBit(ln.parity[3])<<3)
		}
	}
	w = w.Put(counterWidth, c.cycle) // the cells hold the low 48 bits
	w = w.Put(counterWidth, c.instret)
	return w.Flush()
}

// ScanWrite applies a bit vector (usually a modified copy of ScanRead's
// result) back to the internal state. Read-only fields (the cycle and
// instruction counters) are ignored, modelling the read-only scan cells of
// the paper's target. This is the writeScanChain building block, and the
// one implementation of update: it takes the fields off a bitvec.Reader in
// the groups ScanReadInto puts them in, each word loaded once, and stops
// where the read-only counters — the tail of the chain — begin.
func (c *CPU) ScanWrite(v *bitvec.Vector) error {
	if v.Len() != ScanLen() {
		return fmt.Errorf("thor: scan vector length %d != chain length %d", v.Len(), ScanLen())
	}
	r := v.Reader()
	var x uint64
	for i := 0; i < NumRegs; i += 2 {
		r, x = r.Get(64)
		c.Regs[i], c.Regs[i+1] = uint32(x), uint32(x>>32)
	}
	r, x = r.Get(32 + flagsWidth)
	c.PC, c.Flags = uint32(x), flagsFromBits(uint8(x>>32))
	for _, ca := range [...]*cache{&c.icache, &c.dcache} {
		for l := range ca.lines {
			ln := &ca.lines[l]
			r, x = r.Get(1 + tagWidth)
			ln.valid, ln.tag = x&1 != 0, uint32(x>>1)
			r, x = r.Get(64)
			ln.data[0], ln.data[1] = uint32(x), uint32(x>>32)
			r, x = r.Get(64)
			ln.data[2], ln.data[3] = uint32(x), uint32(x>>32)
			r, x = r.Get(CacheWordsPerLine)
			ln.parity = [CacheWordsPerLine]bool{x&1 != 0, x&2 != 0, x&4 != 0, x&8 != 0}
		}
	}
	// cpu.cycle, cpu.instret: read-only cells, not taken off the reader.
	c.decGen++
	return nil
}

func flagsToBits(f Flags) uint8 {
	var b uint8
	if f.N {
		b |= 1
	}
	if f.Z {
		b |= 2
	}
	if f.C {
		b |= 4
	}
	if f.V {
		b |= 8
	}
	return b
}

func flagsFromBits(b uint8) Flags {
	return Flags{N: b&1 != 0, Z: b&2 != 0, C: b&4 != 0, V: b&8 != 0}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BoundaryPinLayout describes the pins sampled by the boundary-scan
// register, in chain order.
func BoundaryPinLayout() []ScanField {
	return []ScanField{
		{Name: "pin.addr", Offset: 0, Width: 32},
		{Name: "pin.data_in", Offset: 32, Width: 32},
		{Name: "pin.data_out", Offset: 64, Width: 32},
		{Name: "pin.read", Offset: 96, Width: 1},
		{Name: "pin.write", Offset: 97, Width: 1},
		{Name: "pin.halt", Offset: 98, Width: 1, ReadOnly: true},
		{Name: "pin.error", Offset: 99, Width: 1, ReadOnly: true},
	}
}

// BoundaryLen returns the boundary-scan register length in bits.
func BoundaryLen() int {
	l := BoundaryPinLayout()
	return l[len(l)-1].End()
}

// BoundaryRead samples the pins into a bit vector per BoundaryPinLayout.
func (c *CPU) BoundaryRead() *bitvec.Vector {
	p := c.Pins()
	v := bitvec.New(BoundaryLen())
	v.SetUint64(0, 32, uint64(p.Address))
	v.SetUint64(32, 32, uint64(p.DataIn))
	v.SetUint64(64, 32, uint64(p.DataOut))
	v.Set(96, p.Read)
	v.Set(97, p.Write)
	v.Set(98, p.Halt)
	v.Set(99, p.Error)
	return v
}

// BoundaryWrite applies a boundary vector as a pin-level force (EXTEST):
// the data-in and address pin values in the vector are driven onto the
// buses until ClearBoundaryForce is called. Bits that equal the current
// sample are still driven; pin-level injectors therefore modify only the
// cells they target and write the rest back unchanged.
func (c *CPU) BoundaryWrite(v *bitvec.Vector, dataInMask, addrMask uint32) error {
	if v.Len() != BoundaryLen() {
		return fmt.Errorf("thor: boundary vector length %d != register length %d", v.Len(), BoundaryLen())
	}
	c.force = PinForce{
		Active:     dataInMask != 0 || addrMask != 0,
		DataInMask: dataInMask,
		DataInVal:  uint32(v.Uint64(32, 32)),
		AddrMask:   addrMask,
		AddrVal:    uint32(v.Uint64(0, 32)),
	}
	return nil
}

// ClearBoundaryForce releases any pin-level force.
func (c *CPU) ClearBoundaryForce() { c.force = PinForce{} }
