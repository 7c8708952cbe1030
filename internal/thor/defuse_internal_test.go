package thor

import (
	"fmt"
	"math/rand"
	"testing"
)

func maskOf(regs ...int) uint16 {
	var m uint16
	for _, r := range regs {
		m |= 1 << r
	}
	return m
}

// TestRegUsesClassification pins the operand table against the
// instruction semantics in execDecoded.
func TestRegUsesClassification(t *testing.T) {
	tests := []struct {
		in     Instr
		reads  []int
		writes []int
	}{
		{Instr{Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3}, []int{2, 3}, []int{1}},
		{Instr{Op: OpLDI, Rd: 4}, nil, []int{4}},
		{Instr{Op: OpST, Rd: 5, Rs1: 6}, []int{6, 5}, nil},
		{Instr{Op: OpLD, Rd: 5, Rs1: 6}, []int{6}, []int{5}},
		{Instr{Op: OpCALL}, nil, []int{RegLR}},
		{Instr{Op: OpPUSH, Rs1: 3}, []int{3, RegSP}, []int{RegSP}},
		{Instr{Op: OpPOP, Rd: 3}, []int{RegSP}, []int{3, RegSP}},
		{Instr{Op: OpBEQ}, nil, nil},
		{Instr{Op: OpHALT}, nil, nil},
		{Instr{Op: OpOUT, Rd: 2}, []int{2}, nil},
		{Instr{Op: OpIN, Rd: 2}, nil, []int{2}},
		{Instr{Op: OpCMP, Rd: 9, Rs1: 1, Rs2: 2}, []int{1, 2}, nil},
		{Instr{Op: OpJR, Rs1: 15}, []int{15}, nil},
		{Instr{Op: Opcode(0xEE), Rd: 1, Rs1: 2, Rs2: 3}, nil, nil},
	}
	for _, tt := range tests {
		r, w := regUses(tt.in)
		if r != maskOf(tt.reads...) || w != maskOf(tt.writes...) {
			t.Errorf("%v: reads=%016b writes=%016b, want %v %v", tt.in, r, w, tt.reads, tt.writes)
		}
	}
}

// TestDefUseFieldIndices ties the recorder's field arithmetic to the
// scan layout it indexes.
func TestDefUseFieldIndices(t *testing.T) {
	if numUseFields != len(scanLayout)-2 {
		t.Fatalf("numUseFields = %d, layout has %d fields before the two counters", numUseFields, len(scanLayout)-2)
	}
	want := map[int]string{
		0:                         "cpu.r0",
		NumRegs - 1:               "cpu.r15",
		NumRegs:                   "cpu.pc",
		NumRegs + 1:               "cpu.ccr",
		useFieldICache + useValid: "icache.line0.valid",
		useFieldICache + 3*useFieldsPerLine + useTag:                     "icache.line3.tag",
		useFieldICache + 15*useFieldsPerLine + useParity + 3:             "icache.line15.parity3",
		useFieldDCache + useValid:                                        "dcache.line0.valid",
		useFieldDCache + 7*useFieldsPerLine + useWord + 2:                "dcache.line7.word2",
		useFieldDCache + (CacheLines-1)*useFieldsPerLine + useParity + 3: "dcache.line15.parity3",
	}
	for idx, name := range want {
		if got := scanLayout[idx].Name; got != name {
			t.Errorf("scan field %d is %q, recorder assumes %q", idx, got, name)
		}
	}
}

// TestDefUseRunsMatchLinearScan is the collapsing property: for random
// access streams, the per-field runs answer every (field, boundary)
// query exactly as a linear scan of the raw event list does.
func TestDefUseRunsMatchLinearScan(t *testing.T) {
	type event struct {
		idx   uint32
		field int
		write bool
	}
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 60; round++ {
		nFields := 1 + rng.Intn(6)
		nBoundaries := 1 + rng.Intn(120)
		d := &DefUse{}
		var raw []event
		cycle := uint64(0)
		for i := 0; i < nBoundaries; i++ {
			d.boundary(cycle)
			cycle += 1 + uint64(rng.Intn(28))
			// Skewed event counts: idle stretches, and bursts in which a
			// field is touched several times within one instruction.
			for k := rng.Intn(4) * rng.Intn(3); k > 0; k-- {
				ev := event{idx: uint32(i), field: rng.Intn(nFields), write: rng.Intn(3) == 0}
				raw = append(raw, ev)
				d.add(ev.field, ev.write)
			}
		}
		for f := 0; f < nFields; f++ {
			for idx := 0; idx <= nBoundaries; idx++ {
				want := AccessNone
				for _, ev := range raw {
					if ev.field == f && ev.idx >= uint32(idx) {
						want = AccessRead
						if ev.write {
							want = AccessWrite
						}
						break
					}
				}
				if got := d.fields[f].next(uint32(idx)); got != want {
					t.Fatalf("round %d field %d boundary %d: runs say %v, raw events say %v (%s)",
						round, f, idx, got, want, fmt.Sprint(d.fields[f]))
				}
			}
		}
	}
}
