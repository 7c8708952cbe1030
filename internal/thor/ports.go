package thor

import "slices"

// PortSet models the memory-mapped I/O ports through which the workload
// exchanges data with the environment simulator (paper §3.2: "data may be
// exchanged with a user provided environment simulator"). Input ports are
// FIFO queues written by the host and read by IN; output ports are FIFO
// queues written by OUT and drained by the host.
//
// A workload uses one or two ports, so each direction is a short list
// searched linearly: a control loop touches its ports every iteration, and
// a hash per IN and OUT cost more than the instruction. A port used once
// keeps its list entry and its queue's capacity; an entry with nothing
// queued and a port never seen are the same thing to every reader, as
// they are to IN. The map-based set this replaced is the oracle in
// ports_test.go.
type PortSet struct {
	in  portList
	out portList
}

// portQueue is one port's FIFO; q[head:] is what is queued. IN advances
// head of an input queue. An output queue's head stays 0: a drain hands
// out q whole and moves q itself past it, so nothing written later can
// land in a drained window.
type portQueue struct {
	port uint16
	head int
	q    []uint32
}

// portBlock is the room an output queue allocates ahead of its writes when
// it runs out behind the windows already drained: 1 KiB, a few hundred
// iterations of a control loop.
const portBlock = 256

type portList []portQueue

// find returns the port's queue, or nil when the port was never used.
func (l portList) find(port uint16) *portQueue {
	for i := range l {
		if l[i].port == port {
			return &l[i]
		}
	}
	return nil
}

// findOrAdd returns the port's queue, adding an empty one at first use.
// The pointer is good until the next findOrAdd.
func (l *portList) findOrAdd(port uint16) *portQueue {
	if pq := l.find(port); pq != nil {
		return pq
	}
	*l = append(*l, portQueue{port: port})
	return &(*l)[len(*l)-1]
}

// values returns what is queued, without copying; nil for a nil queue.
func (pq *portQueue) values() []uint32 {
	if pq == nil {
		return nil
	}
	return pq.q[pq.head:]
}

// push appends copies of vals, first reclaiming the room in front of head
// once everything queued has been read.
func (pq *portQueue) push(vals ...uint32) {
	if pq.head == len(pq.q) {
		pq.head, pq.q = 0, pq.q[:0]
	}
	pq.q = append(pq.q, vals...)
}

// reset empties every queue and keeps its capacity — of an output queue,
// only what lies behind the windows already drained.
func (l portList) reset() {
	for i := range l {
		l[i].head, l[i].q = 0, l[i].q[:0]
	}
}

// copyFrom makes the list's logical contents a deep copy of src's.
func (l *portList) copyFrom(src portList) {
	l.reset()
	for i := range src {
		if vals := src[i].values(); len(vals) > 0 {
			l.findOrAdd(src[i].port).push(vals...)
		}
	}
}

func (l portList) queued() int {
	n := 0
	for i := range l {
		n += len(l[i].values())
	}
	return n
}

// NewPortSet returns an empty port set.
func NewPortSet() *PortSet { return &PortSet{} }

// Reset discards all queued data.
func (p *PortSet) Reset() {
	p.in.reset()
	p.out.reset()
}

// Clone returns a deep copy of the port set, for snapshots. The copy, its
// queues and what they hold are one allocation when they fit in a
// portClone, as a control loop's two ports do.
func (p *PortSet) Clone() *PortSet {
	c := new(portClone)
	qs, vals := c.qs[:0], c.vals[:0]
	clone := func(l portList) portList {
		from := len(qs)
		for i := range l {
			if v := l[i].values(); len(v) > 0 {
				at := len(vals)
				vals = append(vals, v...)
				qs = append(qs, portQueue{port: l[i].port, q: vals[at:len(vals):len(vals)]})
			}
		}
		if len(qs) == from {
			return nil
		}
		return qs[from:len(qs):len(qs)]
	}
	c.set.in = clone(p.in)
	c.set.out = clone(p.out)
	return &c.set
}

// portClone is a cloned set with room for its queues and their values.
// Every queue is capped at its length, so a set cloned from another and
// then written to moves out of the room rather than over a neighbour.
type portClone struct {
	set  PortSet
	qs   [2]portQueue
	vals [6]uint32
}

// CopyFrom replaces the port set's contents with a deep copy of src; src
// is left untouched, so a shared snapshot can be copied onto any number
// of boards.
func (p *PortSet) CopyFrom(src *PortSet) {
	p.in.copyFrom(src.in)
	p.out.copyFrom(src.out)
}

// equal reports whether the two sets hold the same values queued on every
// port, a port never used being one with nothing queued.
func (p *PortSet) equal(q *PortSet) bool {
	if q == nil {
		return p.queuedValues() == 0
	}
	return p.in.sameAs(q.in) && q.in.sameAs(p.in) && p.out.sameAs(q.out) && q.out.sameAs(p.out)
}

// sameAs reports whether every port of l has what o has queued on it.
func (l portList) sameAs(o portList) bool {
	for i := range l {
		if !slices.Equal(l[i].values(), o.find(l[i].port).values()) {
			return false
		}
	}
	return true
}

// queuedValues counts all values held in input and output queues.
func (p *PortSet) queuedValues() int { return p.in.queued() + p.out.queued() }

// PushInput queues values on an input port (host side). The values are
// copied; vals is not retained.
func (p *PortSet) PushInput(port uint16, vals ...uint32) {
	p.in.findOrAdd(port).push(vals...)
}

// DrainOutput removes and returns all values written to an output port
// (host side); nil when there are none. The result is the caller's to
// keep: a window of the queue's memory clipped to its own length, which
// no later write, reset or copy touches.
func (p *PortSet) DrainOutput(port uint16) []uint32 {
	pq := p.out.find(port)
	if pq == nil || len(pq.q) == 0 {
		return nil
	}
	n := len(pq.q)
	vals := pq.q[:n:n]
	pq.q = pq.q[n:]
	return vals
}

// PeekOutput returns a copy of the values on an output port without
// draining; nil when there are none.
func (p *PortSet) PeekOutput(port uint16) []uint32 {
	return append([]uint32(nil), p.out.find(port).values()...)
}

// InputDepth returns the number of values queued on an input port.
func (p *PortSet) InputDepth(port uint16) int { return len(p.in.find(port).values()) }

// cpuRead pops one value from an input port, returning zero when empty
// (reading an idle bus).
func (p *PortSet) cpuRead(port uint16) uint32 {
	pq := p.in.find(port)
	if pq == nil || pq.head == len(pq.q) {
		return 0
	}
	v := pq.q[pq.head]
	pq.head++
	return v
}

// cpuWrite appends one value to an output port. Out of room, it allocates
// a block behind whatever is queued (as much again, for a queue nobody
// drains) rather than leave the growth to append, which after every drain
// would start again from a capacity of one.
func (p *PortSet) cpuWrite(port uint16, v uint32) {
	pq := p.out.findOrAdd(port)
	if n := len(pq.q); n == cap(pq.q) {
		pq.q = append(make([]uint32, 0, n+max(n, portBlock)), pq.q...)
	}
	pq.q = append(pq.q, v)
}
