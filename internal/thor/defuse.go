package thor

import (
	"slices"
	"sort"
)

// Def-use recording.
//
// A fault flipped into a scan cell matters only if something reads the
// cell before something else overwrites it. While a recorder is armed,
// the cycle-accurate path logs, for every injectable scan field — the 16
// registers and, per line of both caches, the valid bit, the tag, each
// data word and each parity bit — every read and every write the
// executed instructions perform, in order, tagged with the instruction
// boundary (the point before the instruction, where a fault trigger
// stops the CPU) at which the instruction started. The log is collapsed
// as it is written: per field only the runs of same-kind accesses are
// kept, which is all the one question asked of it needs — what first
// touches this field at or after boundary i?
//
// What counts as an access follows the code that performs it:
//
//   - Registers: regUses, the operand table next to the opcodes. Reads
//     are logged before the instruction executes and writes only once it
//     has retired, so an instruction stopped by an EDM (whose destination
//     is never written) cannot make a fault look overwritten.
//   - A cached read (cachedRead: every fetch, and the loads of LD and
//     POP) looks the line up — reading its valid bit and tag — and on a
//     miss fills it, which writes the whole line (valid, tag, every word,
//     every parity bit, none of them depending on what was there) and
//     looks it up again; the hit then reads the addressed word and its
//     parity bit.
//   - A store (dataWrite: ST and PUSH) updates the data cache: it reads
//     valid and tag and, on a hit, writes the word and its parity bit.
//
// A read is logged as a read of the whole field and a partial write would
// be logged as read+write; THOR-S has none. pc and ccr are not tracked:
// they are read by (nearly) every instruction and Next reports them as
// always read, as it does for anything else it does not track.
//
// The recorder does not instrument the cache or execDecoded, which the
// fast path shares and must not pay for: stepRecorded works the accesses
// out at the instruction boundary, from the instruction about to execute
// and the cache lines as they stand, and then lets Step's own code run.
// What it works out has to match fetch, dataRead, dataWrite and
// cachedRead condition for condition; the campaign differentials against
// unpruned runs (random programs included) are what holds it to that.
// Only Step records: RunFast and StepBurst hand over to the
// cycle-accurate loop while a recorder is armed, at the price of one nil
// test per call.

// Access is the kind of the first access Next finds.
type Access uint8

// Access kinds.
const (
	// AccessNone: the recorded run ended without touching the field again.
	AccessNone Access = iota
	// AccessRead: the field is read first (or is not tracked, or the
	// recording stopped before the run did).
	AccessRead
	// AccessWrite: the field is overwritten first, whatever it held.
	AccessWrite
)

// Scan-field indices (positions in ScanLayout) of the tracked fields.
const (
	useFieldICache   = NumRegs + 2 // after r0..r15, pc, ccr
	useFieldsPerLine = 2 + 2*CacheWordsPerLine
	useFieldDCache   = useFieldICache + CacheLines*useFieldsPerLine
	numUseFields     = useFieldDCache + CacheLines*useFieldsPerLine

	// Offsets within one cache line's fields.
	useValid  = 0
	useTag    = 1
	useWord   = 2
	useParity = 2 + CacheWordsPerLine
)

// useRuns is one field's collapsed access log: maximal runs of same-kind
// accesses, alternating in kind. last[k] is the boundary index of run k's
// final access; run 0 is a write run when firstWrite is set.
type useRuns struct {
	last       []uint32
	firstWrite bool
}

// add appends an access at boundary idx (never below the previous one).
// It reports whether a new run was opened.
func (u *useRuns) add(idx uint32, write bool) bool {
	n := len(u.last)
	if n == 0 {
		u.firstWrite = write
	} else if u.isWrite(n-1) == write {
		u.last[n-1] = idx
		return false
	}
	u.last = append(u.last, idx)
	return true
}

func (u *useRuns) isWrite(run int) bool { return u.firstWrite != (run&1 == 1) }

// next returns the kind of the first access at or after boundary idx.
// Accesses within one instruction share an index and keep their order,
// because runs are searched first to last.
func (u *useRuns) next(idx uint32) Access {
	k := sort.Search(len(u.last), func(k int) bool { return u.last[k] >= idx })
	switch {
	case k == len(u.last):
		return AccessNone
	case u.isWrite(k):
		return AccessWrite
	default:
		return AccessRead
	}
}

// DefUse is the def-use table of one recorded execution. It is immutable
// once taken from the CPU and safe for concurrent readers.
type DefUse struct {
	// Boundaries holds the cycle count at each instruction boundary the
	// run executed from, in order: Boundaries[i] is where a trigger would
	// stop the CPU before the i-th recorded instruction. The state the
	// run ended in is not a boundary — nothing executed from it.
	Boundaries []uint64

	// instret0 is the retired-instruction count at Boundaries[0]; every
	// recorded instruction but the last retires, so boundary i has
	// instret0+i.
	instret0 uint64
	fields   [numUseFields]useRuns

	// bytes approximates the table's footprint; recording stops at an
	// instruction boundary once it would pass maxBytes (0: no cap).
	// After that the table still answers for the boundaries it has, but
	// "no later access" is no longer knowable and reads as AccessRead.
	bytes, maxBytes int
	truncated       bool
}

// RecordDefUse arms def-use recording from the CPU's current instruction
// boundary until TakeDefUse. maxBytes caps the table's size (0: none).
func (c *CPU) RecordDefUse(maxBytes int) {
	c.du = &DefUse{instret0: c.instret, maxBytes: maxBytes}
}

// TakeDefUse disarms recording and returns the table, or nil when no
// recording was armed.
func (c *CPU) TakeDefUse() *DefUse {
	d := c.du
	c.du = nil
	return d
}

// stepRecorded is Step's fetch-decode-execute with the recorder armed.
func (c *CPU) stepRecorded() Status {
	d := c.du
	d.boundary(c.cycle)
	// fetch: a misaligned or out-of-range PC traps before the cache.
	if c.wordInMemory(c.PC) && !c.cfg.DisableCaches {
		d.cachedRead(&c.icache, useFieldICache, c.PC)
	}
	w, ok := c.fetch()
	if !ok {
		return c.status
	}
	in := Decode(w)
	reads, writes := regUses(in)
	d.regs(reads, false)
	// The effective address comes from registers the instruction has not
	// written yet, exactly as execDecoded computes it.
	switch in.Op {
	case OpLD:
		c.recordLoad(c.Regs[in.Rs1] + uint32(in.SImm()))
	case OpPOP:
		c.recordLoad(c.Regs[RegSP])
	case OpST:
		c.recordStore(c.Regs[in.Rs1] + uint32(in.SImm()))
	case OpPUSH:
		c.recordStore(c.Regs[RegSP] - 4)
	}
	st := c.execDecoded(in)
	if st != StatusDetected {
		// Every early exit of execDecoded is a detection, taken before
		// the instruction's register writes.
		d.regs(writes, true)
	}
	return st
}

// recordLoad logs dataRead: EDM checks, then the bus when pins are
// forced, else a cached read.
func (c *CPU) recordLoad(addr uint32) {
	if c.wordInMemory(addr) && !c.force.Active && !c.cfg.DisableCaches {
		c.du.cachedRead(&c.dcache, useFieldDCache, addr)
	}
}

// recordStore logs dataWrite: EDM checks, then a write-through update of
// the data cache (caches enabled or not).
func (c *CPU) recordStore(addr uint32) {
	if !c.wordInMemory(addr) {
		return
	}
	li, wi, tag := c.dcache.index(addr)
	ln := &c.dcache.lines[li]
	f := useFieldDCache + int(li)*useFieldsPerLine
	c.du.add(f+useValid, false)
	c.du.add(f+useTag, false)
	if ln.valid && ln.tag == tag {
		c.du.add(f+useWord+int(wi), true)
		c.du.add(f+useParity+int(wi), true)
	}
}

// cachedRead logs what CPU.cachedRead is about to do to ca for addr,
// judging hit or miss from the line as it stands.
func (d *DefUse) cachedRead(ca *cache, base int, addr uint32) {
	li, wi, tag := ca.index(addr)
	ln := &ca.lines[li]
	f := base + int(li)*useFieldsPerLine
	d.add(f+useValid, false)
	d.add(f+useTag, false)
	if !ln.valid || ln.tag != tag {
		for i := 0; i < useFieldsPerLine; i++ {
			d.add(f+i, true) // fill
		}
		d.add(f+useValid, false)
		d.add(f+useTag, false)
	}
	d.add(f+useWord+int(wi), false)
	d.add(f+useParity+int(wi), false)
}

// boundary opens the next instruction's accesses, or ends the recording
// when the size cap is reached.
func (d *DefUse) boundary(cycle uint64) {
	if d.truncated {
		return
	}
	if d.maxBytes > 0 && d.bytes+8 > d.maxBytes {
		d.truncated = true
		return
	}
	if len(d.Boundaries) == cap(d.Boundaries) {
		d.grow()
	}
	d.Boundaries = append(d.Boundaries, cycle)
	d.bytes += 8
}

// grow doubles the boundaries' array: a reference's table grows to
// thousands of them, and append's quarter steps past 256 allocated the
// array several times over.
func (d *DefUse) grow() {
	d.Boundaries = slices.Grow(d.Boundaries, max(len(d.Boundaries), 256))
}

func (d *DefUse) add(field int, write bool) {
	if d.truncated {
		return
	}
	if d.fields[field].add(uint32(len(d.Boundaries)-1), write) {
		d.bytes += 4
	}
}

func (d *DefUse) regs(mask uint16, write bool) {
	for r := 0; mask != 0; r, mask = r+1, mask>>1 {
		if mask&1 != 0 {
			d.add(r, write)
		}
	}
}

// Bytes returns the table's approximate memory footprint.
func (d *DefUse) Bytes() int { return d.bytes }

// Boundary returns the index of the boundary at which a counter trigger
// with threshold at stops the recorded run: the first one whose cycle
// count — or, byInstret, retired-instruction count — has reached at. ok
// is false when the run ended, or the recording stopped, before that.
func (d *DefUse) Boundary(at uint64, byInstret bool) (idx int, ok bool) {
	if byInstret {
		if at > d.instret0 {
			idx = int(min(at-d.instret0, uint64(len(d.Boundaries))))
		}
	} else {
		idx = sort.Search(len(d.Boundaries), func(i int) bool { return d.Boundaries[i] >= at })
	}
	return idx, idx < len(d.Boundaries)
}

// Next reports what first touches internal-scan-chain bit `bit` when the
// recorded run continues from boundary idx.
func (d *DefUse) Next(bit, idx int) Access {
	f := sort.Search(len(scanLayout), func(i int) bool { return scanLayout[i].End() > bit })
	if bit < 0 || f >= numUseFields || f == NumRegs || f == NumRegs+1 {
		return AccessRead // pc, ccr, the read-only counters, out of range
	}
	a := d.fields[f].next(uint32(idx))
	if a == AccessNone && d.truncated {
		return AccessRead
	}
	return a
}
