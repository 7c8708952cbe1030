package thor

// PeekInput returns a copy of the values queued on an input port, for the
// external tests' whole-machine diff: the one part of the port set the
// host-side API shows only as a depth.
func (p *PortSet) PeekInput(port uint16) []uint32 {
	return append([]uint32(nil), p.in.find(port).values()...)
}
