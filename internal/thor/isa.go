// Package thor implements THOR-S, a cycle-counting simulator of a 32-bit
// microprocessor in the spirit of the Thor RD used as the GOOFI target in
// the paper: 16 general-purpose registers, parity-protected instruction and
// data caches, hardware error detection mechanisms (EDMs), a watchdog timer,
// I/O ports for an environment simulator, and full internal state exposure
// for scan-chain implemented fault injection.
//
// THOR-S is a synthetic stand-in for the proprietary, radiation-hardened
// Thor RD: what matters for fault injection is that every architectural
// latch is reachable (for injection and observation) and that realistic
// error detection mechanisms classify the consequences of injected faults.
package thor

import "fmt"

// Opcode identifies a THOR-S machine instruction.
type Opcode uint8

// Instruction opcodes. The encoding is 32-bit fixed width:
//
//	[31:24] opcode  [23:20] rd  [19:16] rs1  [15:12] rs2  [15:0] imm16
//
// rs2 and imm16 overlap; each opcode uses one or the other.
const (
	OpNOP  Opcode = 0x00 // no operation
	OpHALT Opcode = 0x01 // stop execution, workload finished
	OpMOV  Opcode = 0x02 // rd = rs1
	OpLDI  Opcode = 0x03 // rd = signext(imm16)
	OpLUI  Opcode = 0x04 // rd = imm16 << 16
	OpORI  Opcode = 0x05 // rd = rs1 | zeroext(imm16)
	OpLD   Opcode = 0x06 // rd = mem32[rs1 + signext(imm16)]
	OpST   Opcode = 0x07 // mem32[rs1 + signext(imm16)] = rd
	OpADD  Opcode = 0x08 // rd = rs1 + rs2 (sets NZCV)
	OpADDI Opcode = 0x09 // rd = rs1 + signext(imm16) (sets NZCV)
	OpSUB  Opcode = 0x0A // rd = rs1 - rs2 (sets NZCV)
	OpSUBI Opcode = 0x0B // rd = rs1 - signext(imm16) (sets NZCV)
	OpMUL  Opcode = 0x0C // rd = rs1 * rs2 (sets NZ)
	OpDIV  Opcode = 0x0D // rd = rs1 / rs2 signed (trap on zero divisor)
	OpMOD  Opcode = 0x0E // rd = rs1 % rs2 signed (trap on zero divisor)
	OpAND  Opcode = 0x0F // rd = rs1 & rs2 (sets NZ)
	OpOR   Opcode = 0x10 // rd = rs1 | rs2 (sets NZ)
	OpXOR  Opcode = 0x11 // rd = rs1 ^ rs2 (sets NZ)
	OpNOT  Opcode = 0x12 // rd = ^rs1 (sets NZ)
	OpSHL  Opcode = 0x13 // rd = rs1 << (rs2 & 31) (sets NZ)
	OpSHR  Opcode = 0x14 // rd = rs1 >> (rs2 & 31) logical (sets NZ)
	OpSHLI Opcode = 0x15 // rd = rs1 << (imm16 & 31) (sets NZ)
	OpSHRI Opcode = 0x16 // rd = rs1 >> (imm16 & 31) logical (sets NZ)
	OpCMP  Opcode = 0x17 // flags from rs1 - rs2
	OpCMPI Opcode = 0x18 // flags from rs1 - signext(imm16)
	OpBEQ  Opcode = 0x19 // if Z: pc += signext(imm16)*4
	OpBNE  Opcode = 0x1A // if !Z
	OpBLT  Opcode = 0x1B // if N != V (signed less)
	OpBGE  Opcode = 0x1C // if N == V
	OpBGT  Opcode = 0x1D // if !Z && N == V
	OpBLE  Opcode = 0x1E // if Z || N != V
	OpBRA  Opcode = 0x1F // pc += signext(imm16)*4 unconditionally
	OpCALL Opcode = 0x20 // LR = pc+4; pc += signext(imm16)*4
	OpJR   Opcode = 0x21 // pc = rs1
	OpPUSH Opcode = 0x22 // SP -= 4; mem32[SP] = rs1
	OpPOP  Opcode = 0x23 // rd = mem32[SP]; SP += 4
	OpIN   Opcode = 0x24 // rd = port[imm16]
	OpOUT  Opcode = 0x25 // port[imm16] <- rd
	OpTRAP Opcode = 0x26 // software trap with code imm16
	OpKICK Opcode = 0x27 // kick (reset) the watchdog timer
)

// Register aliases used by the assembler and the calling convention.
const (
	// RegSP is the stack pointer register (r14).
	RegSP = 14
	// RegLR is the link register written by CALL (r15).
	RegLR = 15
	// NumRegs is the number of general-purpose registers.
	NumRegs = 16
)

// Software trap codes with architectural meaning. Other codes are available
// to workloads.
const (
	// TrapAssertFail signals a failed executable assertion. If a trap
	// handler is installed (best-effort recovery), execution continues at
	// the handler; otherwise the CPU halts with a detected error.
	TrapAssertFail = 1
	// TrapEndIteration marks the end of one workload loop iteration.
	// The CPU pauses with StatusIterationEnd so the host can exchange
	// data with the environment simulator, then Run may be called again.
	TrapEndIteration = 2
)

// Instr is a decoded THOR-S instruction.
type Instr struct {
	Op  Opcode
	Rd  uint8  // destination (or source for ST/OUT/PUSH via Rd/Rs1 fields)
	Rs1 uint8  // first source
	Rs2 uint8  // second source
	Imm uint16 // raw 16-bit immediate
}

// SImm returns the immediate sign-extended to 32 bits.
func (in Instr) SImm() int32 { return int32(int16(in.Imm)) }

// Encode packs the instruction into its 32-bit machine form. Rs2 and Imm
// overlap in the encoding (Rs2 occupies the top nibble of Imm); an opcode
// uses one or the other, so set only the relevant field.
func (in Instr) Encode() uint32 {
	return uint32(in.Op)<<24 |
		uint32(in.Rd&0xF)<<20 |
		uint32(in.Rs1&0xF)<<16 |
		uint32(in.Rs2&0xF)<<12 |
		uint32(in.Imm)
}

// Decode unpacks a 32-bit machine word. Decoding never fails; invalid
// opcodes are caught at execution time by the illegal-instruction EDM, which
// is essential for fault injection into the instruction stream.
func Decode(w uint32) Instr {
	return Instr{
		Op:  Opcode(w >> 24),
		Rd:  uint8(w >> 20 & 0xF),
		Rs1: uint8(w >> 16 & 0xF),
		Rs2: uint8(w >> 12 & 0xF),
		Imm: uint16(w),
	}
}

// opInfo describes static properties of an opcode.
type opInfo struct {
	name   string
	cycles uint64 // base cost, excluding cache-miss penalties
	valid  bool
	use    regUse // registers execDecoded reads and writes
}

// regUse names which registers an instruction reads and writes, in terms
// of its operand fields and the two implicit registers. It must follow
// execDecoded exactly: the def-use recorder (defuse.go) and, through it,
// fault-space pruning and the pre-injection analysis trust it.
type regUse uint8

const (
	rRs1 regUse = 1 << iota
	rRs2
	rRd
	rSP
	wRd
	wLR
	wSP
)

// regUses resolves the instruction's register reads and writes to
// bitmasks over r0..r15. Invalid opcodes use nothing: they stop at the
// illegal-opcode EDM.
func regUses(in Instr) (reads, writes uint16) {
	u := opTable[in.Op].use
	if u&rRs1 != 0 {
		reads |= 1 << in.Rs1
	}
	if u&rRs2 != 0 {
		reads |= 1 << in.Rs2
	}
	if u&rRd != 0 {
		reads |= 1 << in.Rd
	}
	if u&rSP != 0 {
		reads |= 1 << RegSP
	}
	if u&wRd != 0 {
		writes |= 1 << in.Rd
	}
	if u&wLR != 0 {
		writes |= 1 << RegLR
	}
	if u&wSP != 0 {
		writes |= 1 << RegSP
	}
	return reads, writes
}

var opTable = [256]opInfo{
	OpNOP:  {"NOP", 1, true, 0},
	OpHALT: {"HALT", 1, true, 0},
	OpMOV:  {"MOV", 1, true, rRs1 | wRd},
	OpLDI:  {"LDI", 1, true, wRd},
	OpLUI:  {"LUI", 1, true, wRd},
	OpORI:  {"ORI", 1, true, rRs1 | wRd},
	OpLD:   {"LD", 2, true, rRs1 | wRd},
	OpST:   {"ST", 2, true, rRs1 | rRd},
	OpADD:  {"ADD", 1, true, rRs1 | rRs2 | wRd},
	OpADDI: {"ADDI", 1, true, rRs1 | wRd},
	OpSUB:  {"SUB", 1, true, rRs1 | rRs2 | wRd},
	OpSUBI: {"SUBI", 1, true, rRs1 | wRd},
	OpMUL:  {"MUL", 4, true, rRs1 | rRs2 | wRd},
	OpDIV:  {"DIV", 12, true, rRs1 | rRs2 | wRd},
	OpMOD:  {"MOD", 12, true, rRs1 | rRs2 | wRd},
	OpAND:  {"AND", 1, true, rRs1 | rRs2 | wRd},
	OpOR:   {"OR", 1, true, rRs1 | rRs2 | wRd},
	OpXOR:  {"XOR", 1, true, rRs1 | rRs2 | wRd},
	OpNOT:  {"NOT", 1, true, rRs1 | wRd},
	OpSHL:  {"SHL", 1, true, rRs1 | rRs2 | wRd},
	OpSHR:  {"SHR", 1, true, rRs1 | rRs2 | wRd},
	OpSHLI: {"SHLI", 1, true, rRs1 | wRd},
	OpSHRI: {"SHRI", 1, true, rRs1 | wRd},
	OpCMP:  {"CMP", 1, true, rRs1 | rRs2},
	OpCMPI: {"CMPI", 1, true, rRs1},
	OpBEQ:  {"BEQ", 2, true, 0},
	OpBNE:  {"BNE", 2, true, 0},
	OpBLT:  {"BLT", 2, true, 0},
	OpBGE:  {"BGE", 2, true, 0},
	OpBGT:  {"BGT", 2, true, 0},
	OpBLE:  {"BLE", 2, true, 0},
	OpBRA:  {"BRA", 2, true, 0},
	OpCALL: {"CALL", 2, true, wLR},
	OpJR:   {"JR", 2, true, rRs1},
	OpPUSH: {"PUSH", 2, true, rRs1 | rSP | wSP},
	OpPOP:  {"POP", 2, true, rSP | wRd | wSP},
	OpIN:   {"IN", 2, true, wRd},
	OpOUT:  {"OUT", 2, true, rRd},
	OpTRAP: {"TRAP", 2, true, 0},
	OpKICK: {"KICK", 1, true, 0},
}

// Valid reports whether op is a defined THOR-S opcode.
func (op Opcode) Valid() bool { return opTable[op].valid }

// String returns the mnemonic, or a hex form for invalid opcodes.
func (op Opcode) String() string {
	if opTable[op].valid {
		return opTable[op].name
	}
	return fmt.Sprintf("OP(%#02x)", uint8(op))
}

// IsBranch reports whether op is a (conditional or unconditional)
// pc-relative branch. Used by the branch-execution fault trigger.
func (op Opcode) IsBranch() bool {
	switch op {
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBGT, OpBLE, OpBRA:
		return true
	}
	return false
}

// IsCall reports whether op transfers control to a subprogram. Used by the
// subprogram-call fault trigger.
func (op Opcode) IsCall() bool { return op == OpCALL }

// String renders the instruction in assembler-like form.
func (in Instr) String() string {
	switch in.Op {
	case OpNOP, OpHALT:
		return in.Op.String()
	case OpMOV, OpNOT:
		return fmt.Sprintf("%s r%d, r%d", in.Op, in.Rd, in.Rs1)
	case OpLDI, OpLUI:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Rd, int16(in.Imm))
	case OpORI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case OpLD:
		return fmt.Sprintf("LD r%d, [r%d%+d]", in.Rd, in.Rs1, int16(in.Imm))
	case OpST:
		return fmt.Sprintf("ST [r%d%+d], r%d", in.Rs1, int16(in.Imm), in.Rd)
	case OpADD, OpSUB, OpMUL, OpDIV, OpMOD, OpAND, OpOR, OpXOR, OpSHL, OpSHR:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs1, in.Rs2)
	case OpADDI, OpSUBI, OpSHLI, OpSHRI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs1, int16(in.Imm))
	case OpCMP:
		return fmt.Sprintf("CMP r%d, r%d", in.Rs1, in.Rs2)
	case OpCMPI:
		return fmt.Sprintf("CMPI r%d, %d", in.Rs1, int16(in.Imm))
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBGT, OpBLE, OpBRA, OpCALL:
		return fmt.Sprintf("%s %+d", in.Op, int16(in.Imm))
	case OpJR, OpPUSH:
		return fmt.Sprintf("%s r%d", in.Op, in.Rs1)
	case OpPOP:
		return fmt.Sprintf("POP r%d", in.Rd)
	case OpIN:
		return fmt.Sprintf("IN r%d, %d", in.Rd, in.Imm)
	case OpOUT:
		return fmt.Sprintf("OUT %d, r%d", in.Imm, in.Rd)
	case OpTRAP:
		return fmt.Sprintf("TRAP %d", in.Imm)
	case OpKICK:
		return "KICK"
	default:
		return fmt.Sprintf("%s rd=%d rs1=%d imm=%#x", in.Op, in.Rd, in.Rs1, in.Imm)
	}
}
