package thor

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The oracle: the port set as two maps of slices — the implementation
// PortSet had before its queues became two short lists, moved here
// unchanged but for its name. Nothing outside the tests calls it.

type mapPortSet struct {
	in  map[uint16][]uint32
	out map[uint16][]uint32
}

func newMapPortSet() *mapPortSet {
	return &mapPortSet{
		in:  make(map[uint16][]uint32),
		out: make(map[uint16][]uint32),
	}
}

func (p *mapPortSet) Reset() {
	p.in = make(map[uint16][]uint32)
	p.out = make(map[uint16][]uint32)
}

func (p *mapPortSet) Clone() *mapPortSet {
	c := newMapPortSet()
	c.CopyFrom(p)
	return c
}

func (p *mapPortSet) CopyFrom(src *mapPortSet) {
	p.in = make(map[uint16][]uint32, len(src.in))
	for port, q := range src.in {
		p.in[port] = append([]uint32(nil), q...)
	}
	p.out = make(map[uint16][]uint32, len(src.out))
	for port, q := range src.out {
		p.out[port] = append([]uint32(nil), q...)
	}
}

func (p *mapPortSet) queuedValues() int {
	n := 0
	for _, q := range p.in {
		n += len(q)
	}
	for _, q := range p.out {
		n += len(q)
	}
	return n
}

func (p *mapPortSet) PushInput(port uint16, vals ...uint32) {
	p.in[port] = append(p.in[port], vals...)
}

func (p *mapPortSet) DrainOutput(port uint16) []uint32 {
	vals := p.out[port]
	p.out[port] = nil
	return vals
}

func (p *mapPortSet) PeekOutput(port uint16) []uint32 {
	out := make([]uint32, len(p.out[port]))
	copy(out, p.out[port])
	return out
}

func (p *mapPortSet) InputDepth(port uint16) int { return len(p.in[port]) }

func (p *mapPortSet) cpuRead(port uint16) uint32 {
	q := p.in[port]
	if len(q) == 0 {
		return 0
	}
	v := q[0]
	p.in[port] = q[1:]
	return v
}

func (p *mapPortSet) cpuWrite(port uint16, v uint32) {
	p.out[port] = append(p.out[port], v)
}

// portOpPorts are the ports the op stream addresses: the low ones a
// workload uses and the far end of the 16-bit space.
var portOpPorts = [...]uint16{0, 1, 2, 3, 0xFFFF}

const portOpSlots = 3

// portOpBytes is the size of one operation in the stream: opcode, slot,
// port and three operand bytes.
const portOpBytes = 6

// portOps drives a few port sets and their oracles through the op stream
// in data, portOpBytes at a time, until the bytes run out. Every value an
// operation returns must equal the oracle's; after every operation every
// set's logical contents must too, every slice a drain ever returned must
// still hold what it held, and — because clones and copies live in the
// other slots and keep being checked — a set that shared memory with
// another would show as soon as either was written.
func portOps(t *testing.T, data []byte) {
	t.Helper()
	type pair struct {
		ps *PortSet
		or *mapPortSet
	}
	var slots [portOpSlots]pair
	for i := range slots {
		slots[i] = pair{NewPortSet(), newMapPortSet()}
	}
	type drained struct{ got, want []uint32 }
	var drains []drained

	for op := 0; len(data) >= portOpBytes; op, data = op+1, data[portOpBytes:] {
		code, a, b, x := data[0], data[1], data[2], data[3:portOpBytes]
		s := &slots[int(a)%portOpSlots]
		port := portOpPorts[int(b)%len(portOpPorts)]
		what := fmt.Sprintf("op %d (code %d, slot %d, port %#x)", op, code%9, int(a)%portOpSlots, port)
		switch code % 9 {
		case 0: // PushInput of 0–3 values
			var vals []uint32
			for i := 0; i < int(x[0])%4; i++ {
				vals = append(vals, uint32(x[1])<<16|uint32(i)<<8|uint32(x[2]))
			}
			s.ps.PushInput(port, vals...)
			s.or.PushInput(port, vals...)
			for i := range vals {
				vals[i] = 0xDEAD // the set kept copies, not vals
			}
		case 1: // IN
			if got, want := s.ps.cpuRead(port), s.or.cpuRead(port); got != want {
				t.Fatalf("%s: IN read %#x, oracle %#x", what, got, want)
			}
		case 2: // OUT
			v := uint32(x[0])<<16 | uint32(x[1])<<8 | uint32(x[2])
			s.ps.cpuWrite(port, v)
			s.or.cpuWrite(port, v)
		case 3: // DrainOutput
			got, want := s.ps.DrainOutput(port), s.or.DrainOutput(port)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: drained %#v, oracle %#v", what, got, want)
			}
			drains = append(drains, drained{got, append([]uint32(nil), want...)})
		case 4: // PeekOutput
			got, want := s.ps.PeekOutput(port), s.or.PeekOutput(port)
			if len(want) == 0 {
				if got != nil {
					t.Fatalf("%s: peeked %#v at an empty port, want nil", what, got)
				}
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: peeked %#v, oracle %#v", what, got, want)
			}
			for i := range got {
				got[i] = 0xDEAD // a copy: the queue must not see this
			}
		case 5: // InputDepth
			if got, want := s.ps.InputDepth(port), s.or.InputDepth(port); got != want {
				t.Fatalf("%s: input depth %d, oracle %d", what, got, want)
			}
		case 6: // Reset
			s.ps.Reset()
			s.or.Reset()
		case 7: // Clone into another slot
			d := &slots[(int(a)+1+int(b)%(portOpSlots-1))%portOpSlots]
			d.ps, d.or = s.ps.Clone(), s.or.Clone()
		case 8: // CopyFrom onto another slot's set, whatever it holds
			d := &slots[(int(a)+1+int(b)%(portOpSlots-1))%portOpSlots]
			d.ps.CopyFrom(s.ps)
			d.or.CopyFrom(s.or)
		}
		// A caller growing what it drained must not reach the queue: the
		// newest windows are the ones the live values lie right behind.
		for _, d := range drains[max(0, len(drains)-portOpSlots):] {
			_ = append(d.got, 0xDEAD)
		}
		for i := range slots {
			ps, or := slots[i].ps, slots[i].or
			for _, port := range portOpPorts {
				if got, want := ps.in.find(port).values(), or.in[port]; len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("after %s: slot %d input %#x holds %#v, oracle %#v", what, i, port, got, want)
				}
				if got, want := ps.out.find(port).values(), or.out[port]; len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("after %s: slot %d output %#x holds %#v, oracle %#v", what, i, port, got, want)
				}
			}
			if got, want := ps.queuedValues(), or.queuedValues(); got != want {
				t.Fatalf("after %s: slot %d queues %d values, oracle %d", what, i, got, want)
			}
		}
		for i, d := range drains {
			if !reflect.DeepEqual(d.got, d.want) {
				t.Fatalf("after %s: drain %d now reads %#v, was %#v", what, i, d.got, d.want)
			}
		}
	}
}

// randomPortOps is a seeded op stream. Half of them stay on one set and
// one pair of ports, the shape of a control loop, so queues fill, empty
// and regrow many times over; the rest wander over every slot and port.
func randomPortOps(rng *rand.Rand, n int) []byte {
	data := make([]byte, 0, portOpBytes*n)
	loop := rng.Intn(2) == 0
	for i := 0; i < n; i++ {
		code, slot, port := byte(rng.Intn(9)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if loop && rng.Intn(8) != 0 {
			code, slot, port = byte(rng.Intn(6)), 0, byte(rng.Intn(2))
		}
		data = append(data, code, slot, port, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return data
}

// TestPortSetMatchesMapModel: seeded random sequences of PushInput, IN,
// OUT, DrainOutput, PeekOutput, InputDepth, Reset, Clone and CopyFrom over
// ports 0–3 and 0xFFFF agree with the map-based set in every value
// returned and in the contents left behind.
func TestPortSetMatchesMapModel(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		portOps(t, randomPortOps(rand.New(rand.NewSource(seed)), 500))
	}
}

// FuzzPortSet is the same property over any op stream.
func FuzzPortSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 0, 0, 7, 3, 0, 1, 0, 0, 0, 2, 0, 1, 0, 0, 9, 3, 0, 1, 0, 0, 0}) // OUT, drain, OUT, drain
	for seed := int64(0); seed < 4; seed++ {
		f.Add(randomPortOps(rand.New(rand.NewSource(seed)), 40))
	}
	f.Fuzz(func(t *testing.T, data []byte) { portOps(t, data) })
}

// TestPortSetControlLoopDoesNotAllocate: a loop iteration's push, two INs,
// an OUT and a drain allocate nothing but one block per portBlock values
// drained, and a Reset gives none of the queues' room back.
func TestPortSetControlLoopDoesNotAllocate(t *testing.T) {
	p := NewPortSet()
	iterate := func() {
		p.PushInput(0, 1, 2)
		p.cpuRead(0)
		p.cpuRead(0)
		p.cpuWrite(1, 3)
		p.DrainOutput(1)
	}
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < portBlock; i++ {
			iterate()
		}
	}); n > 1 {
		t.Errorf("%d control-loop iterations allocate %v times, want one block", portBlock, n)
	}
	// 17 runs of 8 iterations stay inside one block; a Reset that dropped
	// the queues would allocate both again every run.
	if n := testing.AllocsPerRun(16, func() {
		p.Reset()
		for i := 0; i < 8; i++ {
			iterate()
		}
	}); n != 0 {
		t.Errorf("a Reset and 8 iterations allocate %v times", n)
	}
}
