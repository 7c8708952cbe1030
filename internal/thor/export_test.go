package thor

// PeekInput returns a copy of the values queued on an input port, for the
// external tests' whole-machine diff: the one part of the port set the
// host-side API shows only as a depth.
func (p *PortSet) PeekInput(port uint16) []uint32 {
	return append([]uint32(nil), p.in.find(port).values()...)
}

// MirrorLive reports whether the predecoded mirror holds the icache line
// of addr live. It tells the zero-line tests which way the fast path went
// through a line: crossZeroLines leaves a crossed line's mirror dead, as
// cachedRead's fill does, while stepping through a line from its first
// word (a fill, then a rebuild on the second fetch) leaves it live.
func (c *CPU) MirrorLive(addr uint32) bool {
	d := &c.idec[addr/CacheLineBytes%CacheLines]
	return d.gen == c.decGen && d.ok && d.tag == addr/(CacheLineBytes*CacheLines)
}
