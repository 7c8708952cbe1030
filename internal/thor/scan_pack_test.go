package thor

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"goofi/internal/bitvec"
)

// The oracle: capture and update as a walk of scanLayout, one range-checked
// bitvec.SetUint64 / Uint64 per field — the implementation ScanReadInto and
// ScanWrite had before they streamed, moved here unchanged. The streamed
// order is proved against it; nothing outside the tests calls it.

func (c *CPU) scanReadWalk(v *bitvec.Vector) error {
	if v.Len() != ScanLen() {
		return fmt.Errorf("thor: scan vector length %d != chain length %d", v.Len(), ScanLen())
	}
	i := 0
	put := func(width int, val uint64) {
		f := scanLayout[i]
		if f.Width != width {
			panic(fmt.Sprintf("thor: scan layout drift at %s: width %d != %d", f.Name, f.Width, width))
		}
		v.SetUint64(f.Offset, f.Width, val)
		i++
	}
	for r := 0; r < NumRegs; r++ {
		put(32, uint64(c.Regs[r]))
	}
	put(32, uint64(c.PC))
	put(flagsWidth, uint64(flagsToBits(c.Flags)))
	for _, ca := range []*cache{&c.icache, &c.dcache} {
		for l := range ca.lines {
			ln := &ca.lines[l]
			put(1, boolBit(ln.valid))
			put(tagWidth, uint64(ln.tag&(1<<tagWidth-1)))
			for w := 0; w < CacheWordsPerLine; w++ {
				put(32, uint64(ln.data[w]))
			}
			for w := 0; w < CacheWordsPerLine; w++ {
				put(1, boolBit(ln.parity[w]))
			}
		}
	}
	put(counterWidth, c.cycle&(1<<counterWidth-1))
	put(counterWidth, c.instret&(1<<counterWidth-1))
	return nil
}

func (c *CPU) scanWriteWalk(v *bitvec.Vector) error {
	if v.Len() != ScanLen() {
		return fmt.Errorf("thor: scan vector length %d != chain length %d", v.Len(), ScanLen())
	}
	i := 0
	get := func() uint64 {
		f := scanLayout[i]
		i++
		if f.ReadOnly {
			return 0
		}
		return v.Uint64(f.Offset, f.Width)
	}
	for r := 0; r < NumRegs; r++ {
		c.Regs[r] = uint32(get())
	}
	c.PC = uint32(get())
	c.Flags = flagsFromBits(uint8(get()))
	for _, ca := range []*cache{&c.icache, &c.dcache} {
		for l := range ca.lines {
			ln := &ca.lines[l]
			ln.valid = get() != 0
			ln.tag = uint32(get())
			for w := 0; w < CacheWordsPerLine; w++ {
				ln.data[w] = uint32(get())
			}
			for w := 0; w < CacheWordsPerLine; w++ {
				ln.parity[w] = get() != 0
			}
		}
	}
	get() // cpu.cycle: read-only
	get() // cpu.instret: read-only
	c.decGen++
	return nil
}

// newScanCPU is a CPU with little memory behind it: the chain does not
// cover memory, and the tests below build and deep-compare CPUs by the
// thousand.
func newScanCPU() *CPU { return New(Config{MemSize: 1024}) }

// randomScanState fills every cell the chain covers. The edge cases ride on
// the seed: all-ones and all-zero states, tags wider than their 16 cells
// (a fill stores addr/256, which a 64 KiB memory keeps below 2^8 but the
// field is a uint32), counters at and past the 48-bit edge.
func randomScanState(c *CPU, rng *rand.Rand) {
	word := func() uint32 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return ^uint32(0)
		default:
			return rng.Uint32()
		}
	}
	counter := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return 1<<counterWidth - 1
		case 1:
			return 1<<counterWidth + uint64(rng.Intn(3)) // wraps in the cells
		case 2:
			return ^uint64(0)
		default:
			return rng.Uint64() >> uint(rng.Intn(64))
		}
	}
	for r := range c.Regs {
		c.Regs[r] = word()
	}
	c.PC = word()
	c.Flags = flagsFromBits(uint8(rng.Intn(16)))
	for _, ca := range []*cache{&c.icache, &c.dcache} {
		for l := range ca.lines {
			ln := &ca.lines[l]
			ln.valid = rng.Intn(2) == 1
			ln.tag = word()
			for w := range ln.data {
				ln.data[w] = word()
				ln.parity[w] = rng.Intn(2) == 1
			}
		}
		ca.hits, ca.misses = rng.Uint64(), rng.Uint64() // not on the chain
	}
	c.cycle, c.instret = counter(), counter()
}

func allOnesScanState(c *CPU) {
	for r := range c.Regs {
		c.Regs[r] = ^uint32(0)
	}
	c.PC = ^uint32(0)
	c.Flags = Flags{N: true, Z: true, C: true, V: true}
	for _, ca := range []*cache{&c.icache, &c.dcache} {
		for l := range ca.lines {
			ca.lines[l] = cacheLine{
				tag: ^uint32(0), valid: true,
				data:   [CacheWordsPerLine]uint32{^uint32(0), ^uint32(0), ^uint32(0), ^uint32(0)},
				parity: [CacheWordsPerLine]bool{true, true, true, true},
			}
		}
	}
	c.cycle, c.instret = ^uint64(0), ^uint64(0)
}

func randomScanVector(rng *rand.Rand) *bitvec.Vector {
	v := bitvec.New(ScanLen())
	switch rng.Intn(6) {
	case 0: // all zero
	case 1:
		for i := 0; i < v.Len(); i++ {
			v.Set(i, true)
		}
	default:
		for off := 0; off < v.Len(); off += 64 {
			v.SetUint64(off, min(64, v.Len()-off), rng.Uint64())
		}
	}
	return v
}

// scanStateDiff names the first cells two CPUs differ in.
func scanStateDiff(got, want *CPU) string {
	switch {
	case got.Regs != want.Regs:
		return fmt.Sprintf("regs %x, want %x", got.Regs, want.Regs)
	case got.PC != want.PC || got.Flags != want.Flags:
		return fmt.Sprintf("pc %x flags %+v, want %x %+v", got.PC, got.Flags, want.PC, want.Flags)
	}
	for i, ca := range []*cache{&got.icache, &got.dcache} {
		wa := []*cache{&want.icache, &want.dcache}[i]
		for l := range ca.lines {
			if ca.lines[l] != wa.lines[l] {
				return fmt.Sprintf("%s line %d %+v, want %+v", []string{"icache", "dcache"}[i], l, ca.lines[l], wa.lines[l])
			}
		}
	}
	return "state that is not on the chain"
}

// checkScanWrite applies v to two copies of one CPU state, streamed and by
// the layout walk, and returns the streamed one after checking that the two
// are deep-equal and that the read-only cells and everything off the chain
// are as they were.
func checkScanWrite(t testing.TB, seedState func(*CPU), v *bitvec.Vector) *CPU {
	t.Helper()
	got, want := newScanCPU(), newScanCPU()
	seedState(got)
	seedState(want)
	cycle, instret, gen := got.cycle, got.instret, got.decGen
	hits, misses := got.icache.hits, got.dcache.misses
	if err := got.ScanWrite(v); err != nil {
		t.Fatal(err)
	}
	if err := want.scanWriteWalk(v); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ScanWrite and the layout walk leave different CPUs: %s", scanStateDiff(got, want))
	}
	if got.cycle != cycle || got.instret != instret {
		t.Fatalf("ScanWrite moved a read-only counter: cycle %d -> %d, instret %d -> %d", cycle, got.cycle, instret, got.instret)
	}
	if got.decGen != gen+1 {
		t.Fatalf("ScanWrite took decGen %d -> %d, want one bump", gen, got.decGen)
	}
	if got.icache.hits != hits || got.dcache.misses != misses {
		t.Fatal("ScanWrite touched the cache statistics")
	}
	return got
}

// checkScanRead captures one CPU streamed and by the layout walk into
// vectors that held something else, and returns the streamed capture.
func checkScanRead(t testing.TB, c *CPU, rng *rand.Rand) *bitvec.Vector {
	t.Helper()
	got, want := randomScanVector(rng), randomScanVector(rng)
	if err := c.ScanReadInto(got); err != nil {
		t.Fatal(err)
	}
	if err := c.scanReadWalk(want); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		diff, _ := got.Xor(want)
		t.Fatalf("ScanReadInto and the layout walk differ at bits %v", diff.OnesPositions())
	}
	return got
}

// checkScanReadBack applies v over a CPU state whose capture was before,
// by both implementations, and wants the capture afterwards to be v in the
// writable cells and before in the read-only ones.
func checkScanReadBack(t testing.TB, state func(*CPU), v, before *bitvec.Vector, rng *rand.Rand) {
	t.Helper()
	after := checkScanRead(t, checkScanWrite(t, state, v), rng)
	for _, f := range scanLayout {
		want := v.Uint64(f.Offset, f.Width)
		if f.ReadOnly {
			want = before.Uint64(f.Offset, f.Width)
		}
		if got := after.Uint64(f.Offset, f.Width); got != want {
			t.Fatalf("%s reads back %#x, want %#x", f.Name, got, want)
		}
	}
}

func TestScanPackMatchesLayoutWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	states := []func(*CPU){func(*CPU) {}, allOnesScanState}
	for i := 0; i < 200; i++ {
		seed := rng.Int63()
		states = append(states, func(c *CPU) { randomScanState(c, rand.New(rand.NewSource(seed))) })
	}
	for i, state := range states {
		c := newScanCPU()
		state(c)
		captured := checkScanRead(t, c, rng)
		if i == 1 && captured.PopCount() != ScanLen() {
			t.Fatalf("the all-ones state captures %d ones of %d: a cell is not covered", captured.PopCount(), ScanLen())
		}

		// A capture applied back changes nothing but decGen and a tag's
		// bits above its 16 cells.
		back := checkScanWrite(t, state, captured)
		if again := checkScanRead(t, back, rng); !again.Equal(captured) {
			t.Fatalf("state %d: capture, update, capture is not a fixed point", i)
		}

		// A random vector applied reads back as itself in the writable
		// cells, as the counters in the rest.
		v := randomScanVector(rng)
		checkScanReadBack(t, state, v, captured, rng)
	}
}

// TestScanPackFollowsLayout is the assertion the per-field drift panic used
// to make on every capture: the fields streamed are scanLayout's, in its
// order and of its widths. One field at a time is all ones, set through
// the layout walk (the counters directly: no update reaches them); the
// streamed capture must have exactly that field's cells set, and the
// streamed update of that vector must build the same CPU.
func TestScanPackFollowsLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	sum := 0
	for _, f := range scanLayout {
		sum += f.Width
		v := bitvec.New(ScanLen())
		v.SetUint64(f.Offset, f.Width, ^uint64(0))
		c := checkScanWrite(t, func(*CPU) {}, v)
		switch f.Name {
		case "cpu.cycle":
			c.cycle = ^uint64(0)
		case "cpu.instret":
			c.instret = ^uint64(0)
		default:
			if f.ReadOnly {
				t.Fatalf("%s: a read-only field this test does not know how to set", f.Name)
			}
		}
		if got := checkScanRead(t, c, rng); !got.Equal(v) {
			t.Errorf("%s: capture has bits %v set, want [%d,%d)", f.Name, got.OnesPositions(), f.Offset, f.End())
		}
	}
	if sum != ScanLen() {
		t.Errorf("scanLayout's widths sum to %d, ScanLen is %d", sum, ScanLen())
	}
}

// FuzzScanPack: any 5,412 bits written and read back are the input in the
// writable cells and the counters elsewhere, and both directions agree
// with the layout walk.
func FuzzScanPack(f *testing.F) {
	raw := func(v *bitvec.Vector) []byte {
		b, err := v.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		return b[8:]
	}
	rng := rand.New(rand.NewSource(23))
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add(raw(randomScanVector(rng)))
	ones := newScanCPU()
	allOnesScanState(ones)
	f.Add(raw(ones.ScanRead()))
	f.Fuzz(func(t *testing.T, data []byte) {
		rng := rand.New(rand.NewSource(23)) // what the captures overwrite
		v := bitvec.New(ScanLen())
		for i := 0; i < len(data) && i*8 < v.Len(); i++ {
			v.SetUint64(i*8, min(8, v.Len()-i*8), uint64(data[i]))
		}
		// The state under the update comes from the input too, so the
		// counters read back are not always a fresh CPU's zeros.
		state := func(c *CPU) {
			if len(data) > 0 {
				randomScanState(c, rand.New(rand.NewSource(int64(data[0])<<8|int64(data[len(data)-1]))))
			}
		}
		before := newScanCPU()
		state(before)
		was := checkScanRead(t, before, rng)
		checkScanReadBack(t, state, v, was, rng)
	})
}

func TestScanPackDoesNotAllocate(t *testing.T) {
	c := newScanCPU()
	randomScanState(c, rand.New(rand.NewSource(24)))
	v := bitvec.New(ScanLen())
	if n := testing.AllocsPerRun(100, func() {
		if err := c.ScanReadInto(v); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ScanReadInto allocates %v times a capture", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.ScanWrite(v); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ScanWrite allocates %v times an update", n)
	}
}

func BenchmarkScanReadInto(b *testing.B) {
	c := newScanCPU()
	randomScanState(c, rand.New(rand.NewSource(25)))
	v := bitvec.New(ScanLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ScanReadInto(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanWrite(b *testing.B) {
	c := newScanCPU()
	randomScanState(c, rand.New(rand.NewSource(26)))
	v := c.ScanRead()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ScanWrite(v); err != nil {
			b.Fatal(err)
		}
	}
}
