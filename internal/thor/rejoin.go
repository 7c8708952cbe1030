package thor

import (
	"bytes"
	"maps"
)

// Shift is how far a CPU's free-running counters — cycle, instret and the
// cache hit and miss counts — stand from a snapshot's, modulo 2^64. No
// instruction reads any of them, and the watchdog reads only cycle −
// lastKick: two machines whose states differ in these counters alone
// execute the same instructions from there on, each counter keeping its
// offset. Checkpoint forwarding ends a faulty run on that argument once it
// re-joins the reference run (scifi's rejoin).
type Shift struct {
	Cycle, Instret                 uint64
	IHits, IMisses, DHits, DMisses uint64
}

// Add returns d + e, counter by counter.
func (d Shift) Add(e Shift) Shift {
	return Shift{
		Cycle: d.Cycle + e.Cycle, Instret: d.Instret + e.Instret,
		IHits: d.IHits + e.IHits, IMisses: d.IMisses + e.IMisses,
		DHits: d.DHits + e.DHits, DMisses: d.DMisses + e.DMisses,
	}
}

// Sub returns d − e, counter by counter.
func (d Shift) Sub(e Shift) Shift {
	return Shift{
		Cycle: d.Cycle - e.Cycle, Instret: d.Instret - e.Instret,
		IHits: d.IHits - e.IHits, IMisses: d.IMisses - e.IMisses,
		DHits: d.DHits - e.DHits, DMisses: d.DMisses - e.DMisses,
	}
}

// Times returns d repeated m times: the shift m iterations of a state that
// repeats up to d add up to.
func (d Shift) Times(m uint64) Shift {
	return Shift{
		Cycle: d.Cycle * m, Instret: d.Instret * m,
		IHits: d.IHits * m, IMisses: d.IMisses * m,
		DHits: d.DHits * m, DMisses: d.DMisses * m,
	}
}

// Rejoins reports whether the CPU's state equals snapshot s's up to a Shift
// of its counters, and returns the shift. The compares are ordered so a
// diverged machine is rejected in a few: PC, registers, flags and cycle −
// lastKick; then the data cache, where a run whose registers have settled
// back most often still differs, and the instruction cache; then status,
// ports, pins, forces and trap handlers; last, memory, of
// which only the pages the CPU has marked are read (an unmarked page is
// zero, and must be in s too). The event log is history, not state, and is
// not compared; a pending detection is refused on either side. The pins'
// halt and error lines are not compared either: Pins recomputes them from
// the status at every read.
func (c *CPU) Rejoins(s *Snapshot) (Shift, bool) {
	if c.PC != s.PC || c.Regs != s.Regs || c.Flags != s.Flags ||
		c.cycle-c.lastKick != s.Cycle-s.LastKick ||
		c.dcache.lines != s.DCache || c.icache.lines != s.ICache {
		return Shift{}, false
	}
	pins, spins := c.pins, s.Pins
	pins.Halt, pins.Error, spins.Halt, spins.Error = false, false, false, false
	if c.status != s.Status || c.detection != nil || s.Detection != nil ||
		!c.ports.equal(s.Ports) || pins != spins || c.force != s.Force ||
		!maps.Equal(c.trapHandlers, s.TrapHandlers) ||
		s.MemLen != len(c.mem) {
		return Shift{}, false
	}
	off := 0
	for i, page := range s.MemPages {
		switch {
		case c.isDirty(i):
			if !bytes.Equal(c.mem[off:off+len(page)], page) {
				return Shift{}, false
			}
		case !isZeroPage(page) && !bytes.Equal(page, zeroPage[:len(page)]):
			return Shift{}, false
		}
		off += len(page)
	}
	iH, iM := c.icache.stats()
	dH, dM := c.dcache.stats()
	return Shift{
		Cycle: c.cycle - s.Cycle, Instret: c.instret - s.Instret,
		IHits: iH - s.IHits, IMisses: iM - s.IMisses,
		DHits: dH - s.DHits, DMisses: dM - s.DMisses,
	}, true
}

// Skip moves a CPU that Rejoins a snapshot of some run with shift d to
// where running on would take it: to, a later snapshot of the same run,
// with every counter moved by d — and lastKick and the pending detection's
// cycle by d's cycles. The CPU keeps the events it has logged, followed by
// the ones to logged after its first since, their cycles moved by d.
func (c *CPU) Skip(to *Snapshot, d Shift, since int) error {
	own := c.events
	if err := c.Restore(to); err != nil {
		return err
	}
	c.events = own
	for _, ev := range to.Events[since:] {
		ev.Cycle += d.Cycle
		c.events = append(c.events, ev)
	}
	c.Advance(d)
	return nil
}

// Advance moves every free-running counter by d — and lastKick and the
// pending detection's cycle by d's cycles — leaving the rest of the state
// as it is: where running on takes a CPU whose state repeats up to d
// (scifi's steady-state skip), or one that re-joined another run (Skip).
// The event log is not touched.
func (c *CPU) Advance(d Shift) {
	c.cycle += d.Cycle
	c.lastKick += d.Cycle
	c.instret += d.Instret
	c.icache.hits += d.IHits
	c.icache.misses += d.IMisses
	c.dcache.hits += d.DHits
	c.dcache.misses += d.DMisses
	if c.detection != nil {
		c.detection.Cycle += d.Cycle
	}
}

// NumEvents returns how many detection events the CPU has logged since
// reset, recovered ones included, without copying them (Events).
func (c *CPU) NumEvents() int { return len(c.events) }
