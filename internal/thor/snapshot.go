package thor

import (
	"bytes"
	"fmt"
	"maps"
)

// SnapshotPageBytes is the page granularity at which snapshot memory is
// stored. Consecutive snapshots of the same run share the pages that did
// not change between them (copy-on-write), and every all-zero page is one
// shared zero page, so a campaign checkpoint set costs roughly the
// workload's non-zero pages once plus the written working set.
const SnapshotPageBytes = 1024

// zeroPage is the one immutable all-zero page every snapshot shares; a
// restore recognises it by address.
var zeroPage [SnapshotPageBytes]byte

// isZeroPage reports whether a snapshot page is (a prefix of) zeroPage.
func isZeroPage(p []byte) bool { return len(p) > 0 && &p[0] == &zeroPage[0] }

// Snapshot captures the complete system state for exact restoration:
// architectural state, memory, caches (including hit/miss statistics),
// cycle/instret/watchdog counters, I/O port queues, trap handlers, pin
// state and pending detections. Reference runs, the
// pre-injection analysis and campaign checkpoint-forwarding rely on a
// restore being indistinguishable from having executed to the snapshot
// point. Pages in MemPages may be shared between snapshots and must be
// treated as immutable.
type Snapshot struct {
	Regs  [NumRegs]uint32
	PC    uint32
	Flags Flags

	// MemPages is physical memory split into SnapshotPageBytes pages
	// (the last page may be shorter); MemLen is the total byte count.
	MemPages [][]byte
	MemLen   int

	ICache [CacheLines]cacheLine
	DCache [CacheLines]cacheLine
	IHits, IMisses,
	DHits, DMisses uint64

	Cycle    uint64
	Instret  uint64
	LastKick uint64

	Status    Status
	Detection *Detection
	Events    []Detection

	TrapHandlers map[uint16]uint32

	Pins  Pins
	Force PinForce
	Ports *PortSet
}

// Bytes returns the approximate heap footprint of the snapshot's own
// (unshared-with-prev) data, as reported by SnapshotSharing.
func snapshotFixedBytes(s *Snapshot) int {
	n := len(s.Events) * 32
	n += len(s.TrapHandlers) * 8
	if s.Ports != nil {
		n += s.Ports.queuedValues() * 4
	}
	return n + 512 // struct, cache arrays, map headers
}

// Snapshot returns a deep copy of the current state. All memory pages are
// freshly allocated; use SnapshotSharing to share unchanged pages with a
// previous snapshot of the same run.
func (c *CPU) Snapshot() *Snapshot {
	s, _ := c.SnapshotSharing(nil)
	return s
}

// SnapshotSharing captures the current state like Snapshot, but shares
// with prev what did not change since it: memory pages whose contents
// equal prev's (and prev's page table, when every page does), and the trap
// handler map and the port set when they equal prev's. It
// returns the snapshot and the number of bytes a deep copy would have to
// allocate beyond prev's pages (page data plus bookkeeping) — the marginal
// cost of keeping this snapshot alongside prev. prev may be nil, in which
// case every non-zero page is fresh and nothing else is shared. An
// all-zero page is the shared zero page, fresh in no snapshot.
func (c *CPU) SnapshotSharing(prev *Snapshot) (*Snapshot, int) {
	s, pages, fresh := c.snapshotPages(prev)
	iH, iM := c.icache.stats()
	dH, dM := c.dcache.stats()
	*s = Snapshot{
		Regs:     c.Regs,
		PC:       c.PC,
		Flags:    c.Flags,
		MemPages: pages,
		MemLen:   len(c.mem),
		ICache:   c.icache.lines,
		DCache:   c.dcache.lines,
		IHits:    iH,
		IMisses:  iM,
		DHits:    dH,
		DMisses:  dM,
		Cycle:    c.cycle,
		Instret:  c.instret,
		LastKick: c.lastKick,
		Status:   c.status,
		Events:   append([]Detection(nil), c.events...),
		Pins:     c.pins,
		Force:    c.force,
	}
	if c.detection != nil {
		d := *c.detection
		s.Detection = &d
	}
	if prev != nil && maps.Equal(c.trapHandlers, prev.TrapHandlers) {
		s.TrapHandlers = prev.TrapHandlers
	} else {
		s.TrapHandlers = maps.Clone(c.trapHandlers)
	}
	if prev != nil && c.ports.equal(prev.Ports) {
		s.Ports = prev.Ports
	} else {
		s.Ports = c.ports.Clone()
	}
	return s, fresh + snapshotFixedBytes(s)
}

// snapshotPages allocates a snapshot and returns it with its page table
// and the bytes of the pages it had to copy: a marked page whose contents
// equal prev's is prev's, an all-zero page the zero page, any other a
// copy. A table whose every page is prev's is prev's table; a new one is
// made at the first page that is not, with the snapshot where it fits a
// snapshotBlock.
func (c *CPU) snapshotPages(prev *Snapshot) (*Snapshot, [][]byte, int) {
	nPages := (len(c.mem) + SnapshotPageBytes - 1) / SnapshotPageBytes
	var old [][]byte
	if prev != nil && len(prev.MemPages) == nPages {
		old = prev.MemPages
	}
	var s *Snapshot
	var pages [][]byte
	fresh := 0
	for i := 0; i < nPages; i++ {
		cur := c.page(i)
		zero := zeroPage[:len(cur)]
		var p []byte
		switch {
		case !c.isDirty(i):
			p = zero
		case old != nil && bytes.Equal(old[i], cur):
			p = old[i]
		case bytes.Equal(cur, zero):
			p = zero
		default:
			p = bytes.Clone(cur)
			fresh += len(cur)
		}
		if pages == nil {
			if old != nil && samePage(p, old[i]) {
				continue
			}
			if nPages <= snapshotBlockPages {
				b := new(snapshotBlock)
				s, pages = &b.s, b.pages[:nPages]
			} else {
				pages = make([][]byte, nPages)
			}
			copy(pages, old[:min(i, len(old))])
		}
		pages[i] = p
	}
	if pages == nil {
		pages = old
	}
	if s == nil {
		s = new(Snapshot)
	}
	return s, pages, fresh
}

// snapshotBlockPages is the page count of the default memory.
const snapshotBlockPages = 64

// snapshotBlock is a snapshot and its page table, allocated together.
type snapshotBlock struct {
	s     Snapshot
	pages [snapshotBlockPages][]byte
}

// samePage reports whether two snapshot pages are one.
func samePage(p, q []byte) bool { return len(p) == len(q) && (len(p) == 0 || &p[0] == &q[0]) }

// Restore overwrites the CPU state with a snapshot taken from a CPU of
// the same configuration. The snapshot itself is not aliased: maps, port
// queues and memory pages are copied, so a snapshot can be restored onto
// any number of boards (even concurrently) without interference. A page
// that is the zero page in the snapshot and unmarked in the CPU is zero
// on both sides and not copied.
func (c *CPU) Restore(s *Snapshot) error {
	if s.MemLen != len(c.mem) {
		return fmt.Errorf("thor: snapshot memory size %d != CPU memory size %d",
			s.MemLen, len(c.mem))
	}
	c.Regs = s.Regs
	c.PC = s.PC
	c.Flags = s.Flags
	off := 0
	for i, page := range s.MemPages {
		zero := isZeroPage(page)
		if !zero || c.isDirty(i) {
			copy(c.mem[off:], page)
			if zero {
				c.dirty[i/64] &^= 1 << (i % 64)
			} else {
				c.markDirty(uint32(off), uint32(off+len(page)))
			}
		}
		off += len(page)
	}
	c.icache.lines = s.ICache
	c.dcache.lines = s.DCache
	c.icache.hits, c.icache.misses = s.IHits, s.IMisses
	c.dcache.hits, c.dcache.misses = s.DHits, s.DMisses
	c.cycle = s.Cycle
	c.instret = s.Instret
	c.lastKick = s.LastKick
	c.status = s.Status
	c.detection = nil
	if s.Detection != nil {
		d := *s.Detection
		c.detection = &d
	}
	// A copy of the snapshot's events in an array of the CPU's own — a new
	// one, for Skip keeps the old one's — or, with none, the old array,
	// which nothing is written to here.
	if len(s.Events) == 0 {
		c.events = c.events[:0]
	} else {
		c.events = append(c.events[:0:0], s.Events...)
	}
	// Cleared and refilled, not remade: a campaign restores once per
	// forwarded experiment, and the map is the CPU's own either way.
	clear(c.trapHandlers)
	for k, v := range s.TrapHandlers {
		c.trapHandlers[k] = v
	}
	c.pins = s.Pins
	c.force = s.Force
	if s.Ports != nil {
		c.ports.CopyFrom(s.Ports)
	} else {
		c.ports.Reset()
	}
	c.decGen++
	return nil
}
