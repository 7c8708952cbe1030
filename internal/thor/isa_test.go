package thor

import (
	"strings"
	"testing"
	"testing/quick"
)

// negImm converts a negative immediate to its 16-bit two's-complement
// encoding (constant conversions would overflow at compile time).
func negImm(v int) uint16 {
	x := int16(v)
	return uint16(x)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tests := []Instr{
		{Op: OpNOP},
		{Op: OpLDI, Rd: 3, Imm: 0x1234},
		{Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpST, Rd: 15, Rs1: 14, Imm: 0xFFFC},
		{Op: OpBEQ, Imm: negImm(-5)},
		{Op: OpTRAP, Imm: 2},
	}
	for _, in := range tests {
		got := Decode(in.Encode())
		if got.Op != in.Op || got.Rd != in.Rd || got.Rs1 != in.Rs1 {
			t.Errorf("round trip %v -> %v", in, got)
		}
		if in.Op == OpADD && got.Rs2 != in.Rs2 {
			t.Errorf("rs2 lost: %v -> %v", in, got)
		}
		if in.Op != OpADD && got.Imm != in.Imm {
			t.Errorf("imm lost: %v -> %v", in, got)
		}
	}
}

// Property: Encode/Decode round-trips every field combination (Imm-form
// instructions preserve Imm; register-form preserve Rs2).
func TestPropertyEncodeDecode(t *testing.T) {
	f := func(opRaw, rd, rs1, rs2 uint8, imm uint16) bool {
		in := Instr{
			Op:  Opcode(opRaw),
			Rd:  rd & 0xF,
			Rs1: rs1 & 0xF,
			Rs2: rs2 & 0xF,
		}
		// Rs2 and Imm overlap; test the two encodings separately.
		regForm := in
		got := Decode(regForm.Encode())
		if got.Op != in.Op || got.Rd != in.Rd || got.Rs1 != in.Rs1 || got.Rs2 != in.Rs2 {
			return false
		}
		immForm := Instr{Op: in.Op, Rd: in.Rd, Rs1: in.Rs1, Imm: imm}
		got = Decode(immForm.Encode())
		return got.Op == in.Op && got.Rd == in.Rd && got.Rs1 == in.Rs1 && got.Imm == imm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpcodeClassification(t *testing.T) {
	branches := []Opcode{OpBEQ, OpBNE, OpBLT, OpBGE, OpBGT, OpBLE, OpBRA}
	for _, op := range branches {
		if !op.IsBranch() {
			t.Errorf("%v not classified as branch", op)
		}
	}
	for _, op := range []Opcode{OpADD, OpCALL, OpJR, OpHALT} {
		if op.IsBranch() {
			t.Errorf("%v wrongly classified as branch", op)
		}
	}
	if !OpCALL.IsCall() || OpJR.IsCall() {
		t.Error("call classification wrong")
	}
}

func TestOpcodeValidity(t *testing.T) {
	valid := 0
	for op := 0; op < 256; op++ {
		if Opcode(op).Valid() {
			valid++
		}
	}
	if valid != 40 {
		t.Errorf("valid opcode count = %d, want 40", valid)
	}
	if Opcode(0xFF).Valid() {
		t.Error("0xFF reported valid")
	}
	if !strings.Contains(Opcode(0xFF).String(), "0xff") {
		t.Errorf("invalid opcode string = %q", Opcode(0xFF))
	}
}

func TestInstrStringForms(t *testing.T) {
	tests := map[string]Instr{
		"NOP":               {Op: OpNOP},
		"LDI r1, -3":        {Op: OpLDI, Rd: 1, Imm: negImm(-3)},
		"ADD r1, r2, r3":    {Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3},
		"LD r4, [r5+8]":     {Op: OpLD, Rd: 4, Rs1: 5, Imm: 8},
		"ST [r5-4], r4":     {Op: OpST, Rd: 4, Rs1: 5, Imm: negImm(-4)},
		"CMP r1, r2":        {Op: OpCMP, Rs1: 1, Rs2: 2},
		"BEQ +10":           {Op: OpBEQ, Imm: 10},
		"JR r15":            {Op: OpJR, Rs1: 15},
		"POP r7":            {Op: OpPOP, Rd: 7},
		"IN r1, 3":          {Op: OpIN, Rd: 1, Imm: 3},
		"OUT 5, r2":         {Op: OpOUT, Rd: 2, Imm: 5},
		"TRAP 1":            {Op: OpTRAP, Imm: 1},
		"KICK":              {Op: OpKICK},
		"MOV r2, r9":        {Op: OpMOV, Rd: 2, Rs1: 9},
		"SHLI r1, r2, 4":    {Op: OpSHLI, Rd: 1, Rs1: 2, Imm: 4},
		"CMPI r3, -1":       {Op: OpCMPI, Rs1: 3, Imm: negImm(-1)},
		"ORI r1, r1, 65535": {Op: OpORI, Rd: 1, Rs1: 1, Imm: 0xFFFF},
	}
	for want, in := range tests {
		if got := in.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", in, got, want)
		}
	}
}

func TestSImmSignExtension(t *testing.T) {
	if got := (Instr{Imm: 0xFFFF}).SImm(); got != -1 {
		t.Errorf("SImm(0xFFFF) = %d", got)
	}
	if got := (Instr{Imm: 0x7FFF}).SImm(); got != 32767 {
		t.Errorf("SImm(0x7FFF) = %d", got)
	}
}
