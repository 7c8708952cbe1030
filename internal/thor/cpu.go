package thor

import (
	"errors"
	"fmt"
	"math/bits"
	"strconv"
)

// Status is the execution state reported by Step and Run.
type Status int

// Execution states.
const (
	// StatusRunning means the CPU can execute further instructions.
	StatusRunning Status = iota
	// StatusHalted means the workload executed HALT (normal termination).
	StatusHalted
	// StatusIterationEnd means the workload executed TRAP TrapEndIteration,
	// pausing for environment-simulator data exchange.
	StatusIterationEnd
	// StatusDetected means a hardware EDM or an unhandled assertion
	// detected an error; the CPU stops.
	StatusDetected
	// StatusOutOfBudget means Run exhausted its cycle budget.
	StatusOutOfBudget
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusHalted:
		return "halted"
	case StatusIterationEnd:
		return "iteration-end"
	case StatusDetected:
		return "detected"
	case StatusOutOfBudget:
		return "out-of-budget"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// EDM identifies an error detection mechanism of the target system. The
// analysis phase classifies detected errors per mechanism (paper §3.4).
type EDM int

// Error detection mechanisms of THOR-S.
const (
	// EDMNone is the zero value; no mechanism.
	EDMNone EDM = iota
	// EDMParityI is a parity error in the instruction cache.
	EDMParityI
	// EDMParityD is a parity error in the data cache.
	EDMParityD
	// EDMIllegalOp is an undefined opcode fetch.
	EDMIllegalOp
	// EDMMisaligned is a non-word-aligned memory or PC access.
	EDMMisaligned
	// EDMMemRange is an access outside physical memory.
	EDMMemRange
	// EDMOverflow is a signed arithmetic overflow (Ada-style constraint
	// check, enabled by Config.TrapOnOverflow).
	EDMOverflow
	// EDMDivZero is a division or modulo by zero.
	EDMDivZero
	// EDMWatchdog is a watchdog timer expiry.
	EDMWatchdog
	// EDMAssertion is a failed executable assertion (software EDM).
	EDMAssertion
)

// String returns the mechanism name used in logs and reports.
func (m EDM) String() string {
	switch m {
	case EDMNone:
		return "none"
	case EDMParityI:
		return "parity-icache"
	case EDMParityD:
		return "parity-dcache"
	case EDMIllegalOp:
		return "illegal-opcode"
	case EDMMisaligned:
		return "misaligned-access"
	case EDMMemRange:
		return "memory-range"
	case EDMOverflow:
		return "arithmetic-overflow"
	case EDMDivZero:
		return "divide-by-zero"
	case EDMWatchdog:
		return "watchdog"
	case EDMAssertion:
		return "assertion"
	default:
		return fmt.Sprintf("EDM(%d)", int(m))
	}
}

// Detection records one error detection event.
type Detection struct {
	Mechanism EDM
	Cycle     uint64
	PC        uint32
	Info      string
}

// Flags is the condition code register (NZCV).
type Flags struct {
	N, Z, C, V bool
}

// Config holds the build-time parameters of a THOR-S system.
type Config struct {
	// MemSize is the physical memory size in bytes (default 64 KiB).
	MemSize uint32
	// WatchdogLimit is the maximum number of cycles between KICK
	// instructions before the watchdog EDM fires. Zero disables it.
	WatchdogLimit uint64
	// TrapOnOverflow enables the arithmetic-overflow EDM.
	TrapOnOverflow bool
	// DisableCaches bypasses the I/D caches (every access goes to
	// memory with the miss penalty). Used to isolate cache effects.
	DisableCaches bool
}

// DefaultConfig returns the configuration used by the reference target
// system: 64 KiB memory, watchdog at 200k cycles, overflow trap enabled.
func DefaultConfig() Config {
	return Config{
		MemSize:        64 * 1024,
		WatchdogLimit:  200_000,
		TrapOnOverflow: true,
	}
}

// Pins models the externally visible pins of the CPU, sampled by the
// boundary-scan register each cycle and forceable by pin-level injection.
type Pins struct {
	Address uint32 // address bus of the most recent memory access
	DataIn  uint32 // value most recently read from memory
	DataOut uint32 // value most recently written to memory
	Read    bool   // read strobe of the most recent access
	Write   bool   // write strobe of the most recent access
	Halt    bool   // halted indicator
	Error   bool   // EDM indicator
}

// PinForce describes externally forced pin values (pin-level fault
// injection via boundary-scan EXTEST). Forced bits in DataInMask replace
// the corresponding data bits on every memory read while active.
type PinForce struct {
	Active     bool
	DataInMask uint32 // which data-in bits are forced
	DataInVal  uint32 // values for the forced bits
	AddrMask   uint32 // which address bits are forced
	AddrVal    uint32
}

// CPU is one THOR-S processor instance. The zero value is not usable; use
// New. CPU is not safe for concurrent use; the campaign runner drives one
// CPU per simulated board.
type CPU struct {
	cfg Config

	// Architectural state (all of it reachable through the internal
	// scan chains).
	Regs  [NumRegs]uint32
	PC    uint32
	Flags Flags

	mem []byte
	// dirty has a bit per SnapshotPageBytes page of mem that may hold a
	// non-zero byte: every write to mem sets its page's (memSetWord,
	// LoadMemory, Restore), and only ClearMemory and a restore of a zero
	// page clear one. So ClearMemory clears only marked pages, and a
	// snapshot and a restore pass unmarked ones by (snapshot.go): a
	// campaign's reset and restore cost the pages its workload wrote, not
	// the whole memory.
	dirty  []uint64
	icache cache
	dcache cache

	cycle    uint64
	instret  uint64
	lastKick uint64

	status    Status
	detection *Detection
	events    []Detection // all detections incl. recovered assertions
	// detected is what detection points to after a detection in a run:
	// the CPU's own, not a fresh one each time.
	detected Detection

	trapHandlers map[uint16]uint32

	// Predecoded-instruction cache mirroring the icache: idec[li] holds
	// the decoded forms of the words in icache line li. A line is live
	// only when its gen matches decGen, ok is set, and its tag matches
	// the icache line's tag; any write that can change icache contents
	// bumps decGen (global) or clears ok (per line). Used exclusively by
	// the fast path — Step never consults it.
	idec   [CacheLines]decLine
	decGen uint64

	ports *PortSet
	pins  Pins
	force PinForce

	// TraceHook, when non-nil, is called after every retired instruction
	// with the CPU itself; detail-mode logging and the pre-injection
	// analysis attach here.
	TraceHook func(c *CPU)

	// du, when non-nil, is the armed def-use recorder (defuse.go): Step
	// logs through it, and the fast path hands over to Step.
	du *DefUse

	// RunHook, when non-nil, is called once at every Run entry before
	// any instruction executes. The chaos harness attaches here to
	// simulate a wedged board: a hook that blocks stalls the run exactly
	// like silicon that stops answering the test card, recoverable only
	// by the campaign driver's watchdog.
	RunHook func(c *CPU)
}

// New returns a reset CPU with the given configuration.
func New(cfg Config) *CPU {
	if cfg.MemSize == 0 {
		cfg.MemSize = DefaultConfig().MemSize
	}
	pages := (int(cfg.MemSize) + SnapshotPageBytes - 1) / SnapshotPageBytes
	c := &CPU{
		cfg:          cfg,
		mem:          make([]byte, cfg.MemSize),
		dirty:        make([]uint64, (pages+63)/64),
		trapHandlers: make(map[uint16]uint32),
		ports:        NewPortSet(),
	}
	c.Reset()
	return c
}

// Config returns the CPU's configuration.
func (c *CPU) Config() Config { return c.cfg }

// Reset returns the CPU to its power-on state. Memory contents are
// preserved (the test card downloads the workload separately), matching the
// paper's reinitialise-then-download sequence.
func (c *CPU) Reset() {
	c.Regs = [NumRegs]uint32{}
	c.Regs[RegSP] = c.cfg.MemSize // full-descending stack from the top
	c.PC = 0
	c.Flags = Flags{}
	c.icache.invalidateAll()
	c.dcache.invalidateAll()
	c.cycle = 0
	c.instret = 0
	c.lastKick = 0
	c.status = StatusRunning
	c.detection = nil
	c.events = c.events[:0] // the CPU's own array: nothing else holds it
	c.pins = Pins{}
	c.force = PinForce{}
	c.ports.Reset()
	c.decGen++
}

// ClearMemory zeroes all physical memory: the pages that may hold a
// non-zero byte, the others being zero already.
func (c *CPU) ClearMemory() {
	for w, m := range c.dirty {
		for ; m != 0; m &= m - 1 {
			clear(c.page(w*64 + bits.TrailingZeros64(m)))
		}
		c.dirty[w] = 0
	}
}

// page is memory page p; the last may be short.
func (c *CPU) page(p int) []byte {
	lo := p * SnapshotPageBytes
	return c.mem[lo:min(lo+SnapshotPageBytes, len(c.mem))]
}

// markDirty marks the pages bytes [lo, hi) of memory lie in, hi > lo.
func (c *CPU) markDirty(lo, hi uint32) {
	for p := lo / SnapshotPageBytes; p <= (hi-1)/SnapshotPageBytes; p++ {
		c.dirty[p/64] |= 1 << (p % 64)
	}
}

// isDirty reports whether page p is marked.
func (c *CPU) isDirty(p int) bool { return c.dirty[p/64]&(1<<(p%64)) != 0 }

// Cycle returns the number of cycles elapsed since reset.
func (c *CPU) Cycle() uint64 { return c.cycle }

// Instret returns the number of instructions retired since reset.
func (c *CPU) Instret() uint64 { return c.instret }

// Status returns the current execution status.
func (c *CPU) Status() Status { return c.status }

// Detection returns the detection that stopped the CPU, or nil.
func (c *CPU) Detection() *Detection { return c.detection }

// Events returns every detection event recorded since reset, including
// assertion failures that were recovered from.
func (c *CPU) Events() []Detection {
	out := make([]Detection, len(c.events))
	copy(out, c.events)
	return out
}

// Event returns detection event i, 0 <= i < NumEvents, of those Events
// returns, without copying them all.
func (c *CPU) Event(i int) Detection { return c.events[i] }

// Ports returns the CPU's I/O port set.
func (c *CPU) Ports() *PortSet { return c.ports }

// Pins returns the current pin sample.
func (c *CPU) Pins() Pins {
	c.pins.Halt = c.status != StatusRunning
	c.pins.Error = c.status == StatusDetected
	return c.pins
}

// ForcePins installs a pin-level force (boundary-scan EXTEST).
func (c *CPU) ForcePins(f PinForce) { c.force = f }

// SetTrapHandler installs a software trap handler: executing TRAP code
// transfers control to addr instead of stopping. Used for best-effort
// recovery from executable assertions.
func (c *CPU) SetTrapHandler(code uint16, addr uint32) {
	c.trapHandlers[code] = addr
}

// errOutOfRange is a sentinel for memory range violations inside access
// helpers; it is converted to an EDM by the caller.
var errOutOfRange = errors.New("address out of range")

// LoadMemory copies data into physical memory at addr (host-side access
// used by the test card; it does not consume cycles or touch caches).
func (c *CPU) LoadMemory(addr uint32, data []byte) error {
	if uint64(addr)+uint64(len(data)) > uint64(len(c.mem)) {
		return fmt.Errorf("thor: load of %d bytes at %#x exceeds memory size %#x: %w",
			len(data), addr, len(c.mem), errOutOfRange)
	}
	if len(data) > 0 {
		copy(c.mem[addr:], data)
		c.markDirty(addr, addr+uint32(len(data)))
	}
	return nil
}

// ReadMemory copies n bytes of physical memory starting at addr
// (host-side access).
func (c *CPU) ReadMemory(addr uint32, n int) ([]byte, error) {
	if n < 0 || uint64(addr)+uint64(n) > uint64(len(c.mem)) {
		return nil, fmt.Errorf("thor: read of %d bytes at %#x exceeds memory size %#x: %w",
			n, addr, len(c.mem), errOutOfRange)
	}
	out := make([]byte, n)
	copy(out, c.mem[addr:])
	return out, nil
}

// ReadMemoryInto is ReadMemory into dst, which it fills: len(dst) bytes at
// addr.
func (c *CPU) ReadMemoryInto(dst []byte, addr uint32) error {
	if uint64(addr)+uint64(len(dst)) > uint64(len(c.mem)) {
		return fmt.Errorf("thor: read of %d bytes at %#x exceeds memory size %#x: %w",
			len(dst), addr, len(c.mem), errOutOfRange)
	}
	copy(dst, c.mem[addr:])
	return nil
}

// ReadWord32 reads one aligned word of physical memory (host-side).
func (c *CPU) ReadWord32(addr uint32) (uint32, error) {
	b, err := c.ReadMemory(addr, 4)
	if err != nil {
		return 0, err
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
}

// WriteWord32 writes one aligned word of physical memory (host-side).
func (c *CPU) WriteWord32(addr, w uint32) error {
	b := [4]byte{byte(w >> 24), byte(w >> 16), byte(w >> 8), byte(w)}
	if err := c.LoadMemory(addr, b[:]); err != nil {
		return err
	}
	// Keep the data cache coherent with host-side writes so pre-runtime
	// SWIFI mutations are visible even if a stale line exists.
	c.dcache.update(addr, w)
	c.icache.update(addr, w)
	c.decGen++
	return nil
}

// memWord reads a raw word from physical memory without cache or EDM
// involvement. addr must be aligned and in range (checked by callers).
func (c *CPU) memWord(addr uint32) uint32 {
	return uint32(c.mem[addr])<<24 | uint32(c.mem[addr+1])<<16 |
		uint32(c.mem[addr+2])<<8 | uint32(c.mem[addr+3])
}

// memSetWord writes a raw word to physical memory and marks its page. addr
// must be aligned and in range, so the word lies in one page.
func (c *CPU) memSetWord(addr, w uint32) {
	c.mem[addr] = byte(w >> 24)
	c.mem[addr+1] = byte(w >> 16)
	c.mem[addr+2] = byte(w >> 8)
	c.mem[addr+3] = byte(w)
	p := addr / SnapshotPageBytes
	c.dirty[p/64] |= 1 << (p % 64)
}

// detect stops the CPU with a detected error.
func (c *CPU) detect(m EDM, info string) {
	c.detected = Detection{Mechanism: m, Cycle: c.cycle, PC: c.PC, Info: info}
	c.events = append(c.events, c.detected)
	c.detection = &c.detected
	c.status = StatusDetected
}

// fetch reads the instruction word at PC through the instruction cache.
func (c *CPU) fetch() (uint32, bool) {
	if !c.wordInMemory(c.PC) {
		c.detectBadAddress("instruction fetch", c.PC)
		return 0, false
	}
	w, ok := c.cachedRead(&c.icache, c.PC, EDMParityI)
	return w, ok
}

// wordInMemory is the alignment and range check fetch, dataRead and
// dataWrite make before they touch a cache — and the def-use recorder
// (defuse.go) before it logs what they will touch.
func (c *CPU) wordInMemory(addr uint32) bool {
	return addr%4 == 0 && uint64(addr)+4 <= uint64(len(c.mem))
}

// detectBadAddress raises the EDM for an access that failed wordInMemory:
// misalignment is checked first. The info reads fmt's "%s at %#x", built
// by hand: most effective runs detect here, and fmt, which boxes both
// arguments besides, cost ≈2.2 allocations a detection where this costs
// one.
func (c *CPU) detectBadAddress(what string, addr uint32) {
	edm := EDMMemRange
	if addr%4 != 0 {
		edm = EDMMisaligned
	}
	var buf [48]byte
	info := strconv.AppendUint(append(append(buf[:0], what...), " at 0x"...), uint64(addr), 16)
	c.detect(edm, string(info))
}

// cachedRead reads a word through the given cache, raising parityEDM on a
// parity mismatch. It assumes addr is aligned and in range.
func (c *CPU) cachedRead(ca *cache, addr uint32, parityEDM EDM) (uint32, bool) {
	if c.cfg.DisableCaches {
		c.cycle += CacheMissPenalty
		w := c.busRead(addr)
		return w, true
	}
	if w, hit, parityErr := ca.lookup(addr); hit {
		if parityErr {
			c.detect(parityEDM, fmt.Sprintf("parity mismatch at %#x", addr))
			return 0, false
		}
		c.sampleReadPins(addr, w)
		return w, true
	}
	// Miss: fill the whole line from memory.
	c.cycle += CacheMissPenalty
	base := addr &^ uint32(CacheLineBytes-1)
	var line [CacheWordsPerLine]uint32
	for i := range line {
		wa := base + uint32(i*4)
		if uint64(wa)+4 <= uint64(len(c.mem)) {
			line[i] = c.memWord(wa)
		}
	}
	ca.fill(addr, line)
	if ca == &c.icache {
		// The icache line changed; its predecoded mirror is stale.
		li, _, _ := ca.index(addr)
		c.idec[li].ok = false
	}
	w, _, parityErr := ca.lookup(addr)
	if parityErr {
		// Cannot happen right after a fill, but stay defensive: a
		// fault injected between fill and lookup via TraceHook could
		// in principle corrupt the line.
		c.detect(parityEDM, fmt.Sprintf("parity mismatch at %#x", addr))
		return 0, false
	}
	c.sampleReadPins(addr, w)
	return w, true
}

// busRead models an uncached memory read, applying any pin-level forces.
func (c *CPU) busRead(addr uint32) uint32 {
	if c.force.Active {
		addr = addr&^c.force.AddrMask | c.force.AddrVal&c.force.AddrMask
	}
	var w uint32
	if c.wordInMemory(addr) {
		w = c.memWord(addr)
	}
	if c.force.Active {
		w = w&^c.force.DataInMask | c.force.DataInVal&c.force.DataInMask
	}
	c.sampleReadPins(addr, w)
	return w
}

func (c *CPU) sampleReadPins(addr, w uint32) {
	c.pins.Address = addr
	c.pins.DataIn = w
	c.pins.Read = true
	c.pins.Write = false
}

// dataRead reads a data word with EDM checks and pin forcing.
func (c *CPU) dataRead(addr uint32) (uint32, bool) {
	if !c.wordInMemory(addr) {
		c.detectBadAddress("load", addr)
		return 0, false
	}
	if c.force.Active {
		w := c.busRead(addr)
		return w, true
	}
	return c.cachedRead(&c.dcache, addr, EDMParityD)
}

// dataWrite writes a data word with EDM checks (write-through).
func (c *CPU) dataWrite(addr, w uint32) bool {
	if !c.wordInMemory(addr) {
		c.detectBadAddress("store", addr)
		return false
	}
	c.memSetWord(addr, w)
	c.dcache.update(addr, w)
	c.pins.Address = addr
	c.pins.DataOut = w
	c.pins.Read = false
	c.pins.Write = true
	return true
}

func (c *CPU) setNZ(v uint32) {
	c.Flags.N = int32(v) < 0
	c.Flags.Z = v == 0
}

// addWithFlags computes a+b, setting NZCV, and reports signed overflow.
func (c *CPU) addWithFlags(a, b uint32) (uint32, bool) {
	r := a + b
	c.setNZ(r)
	c.Flags.C = r < a
	c.Flags.V = (a^r)&(b^r)&0x8000_0000 != 0
	return r, c.Flags.V
}

// subWithFlags computes a-b, setting NZCV, and reports signed overflow.
func (c *CPU) subWithFlags(a, b uint32) (uint32, bool) {
	r := a - b
	c.setNZ(r)
	c.Flags.C = a >= b
	c.Flags.V = (a^b)&(a^r)&0x8000_0000 != 0
	return r, c.Flags.V
}

// Step executes one instruction. It returns the resulting status; when the
// status is not StatusRunning the CPU has stopped (or paused, for
// StatusIterationEnd) and Step becomes a no-op until the condition is
// cleared (ResumeIteration, ClearOutOfBudget or Reset).
func (c *CPU) Step() Status {
	if c.status != StatusRunning {
		return c.status
	}
	if c.cfg.WatchdogLimit > 0 && c.cycle-c.lastKick > c.cfg.WatchdogLimit {
		c.detect(EDMWatchdog, fmt.Sprintf("no kick for %d cycles", c.cycle-c.lastKick))
		return c.status
	}
	if c.du != nil {
		return c.stepRecorded()
	}
	w, ok := c.fetch()
	if !ok {
		return c.status
	}
	return c.execDecoded(Decode(w))
}

// branchTarget computes the pc-relative branch destination for the
// instruction currently at PC.
func (c *CPU) branchTarget(imm int32) uint32 {
	return uint32(int64(c.PC) + 4 + int64(imm)*4)
}

// execDecoded validates and executes one decoded instruction whose fetch
// has already happened (and been charged). It is the shared execution
// core of Step and the batched fast path: both must retire instructions
// with bit-identical effects.
func (c *CPU) execDecoded(in Instr) Status {
	if !in.Op.Valid() {
		c.detect(EDMIllegalOp, in.Op.String())
		return c.status
	}
	c.cycle += opTable[in.Op].cycles
	nextPC := c.PC + 4

	switch in.Op {
	case OpNOP:
	case OpHALT:
		c.status = StatusHalted
	case OpMOV:
		c.Regs[in.Rd] = c.Regs[in.Rs1]
	case OpLDI:
		c.Regs[in.Rd] = uint32(in.SImm())
	case OpLUI:
		c.Regs[in.Rd] = uint32(in.Imm) << 16
	case OpORI:
		c.Regs[in.Rd] = c.Regs[in.Rs1] | uint32(in.Imm)
	case OpLD:
		addr := c.Regs[in.Rs1] + uint32(in.SImm())
		v, ok := c.dataRead(addr)
		if !ok {
			return c.status
		}
		c.Regs[in.Rd] = v
	case OpST:
		addr := c.Regs[in.Rs1] + uint32(in.SImm())
		if !c.dataWrite(addr, c.Regs[in.Rd]) {
			return c.status
		}
	case OpADD:
		r, ovf := c.addWithFlags(c.Regs[in.Rs1], c.Regs[in.Rs2])
		if ovf && c.cfg.TrapOnOverflow {
			c.detect(EDMOverflow, in.String())
			return c.status
		}
		c.Regs[in.Rd] = r
	case OpADDI:
		r, ovf := c.addWithFlags(c.Regs[in.Rs1], uint32(in.SImm()))
		if ovf && c.cfg.TrapOnOverflow {
			c.detect(EDMOverflow, in.String())
			return c.status
		}
		c.Regs[in.Rd] = r
	case OpSUB:
		r, ovf := c.subWithFlags(c.Regs[in.Rs1], c.Regs[in.Rs2])
		if ovf && c.cfg.TrapOnOverflow {
			c.detect(EDMOverflow, in.String())
			return c.status
		}
		c.Regs[in.Rd] = r
	case OpSUBI:
		r, ovf := c.subWithFlags(c.Regs[in.Rs1], uint32(in.SImm()))
		if ovf && c.cfg.TrapOnOverflow {
			c.detect(EDMOverflow, in.String())
			return c.status
		}
		c.Regs[in.Rd] = r
	case OpMUL:
		r := uint32(int32(c.Regs[in.Rs1]) * int32(c.Regs[in.Rs2]))
		c.setNZ(r)
		c.Regs[in.Rd] = r
	case OpDIV, OpMOD:
		d := int32(c.Regs[in.Rs2])
		if d == 0 {
			c.detect(EDMDivZero, in.String())
			return c.status
		}
		n := int32(c.Regs[in.Rs1])
		var r int32
		if in.Op == OpDIV {
			r = n / d
		} else {
			r = n % d
		}
		c.setNZ(uint32(r))
		c.Regs[in.Rd] = uint32(r)
	case OpAND:
		r := c.Regs[in.Rs1] & c.Regs[in.Rs2]
		c.setNZ(r)
		c.Regs[in.Rd] = r
	case OpOR:
		r := c.Regs[in.Rs1] | c.Regs[in.Rs2]
		c.setNZ(r)
		c.Regs[in.Rd] = r
	case OpXOR:
		r := c.Regs[in.Rs1] ^ c.Regs[in.Rs2]
		c.setNZ(r)
		c.Regs[in.Rd] = r
	case OpNOT:
		r := ^c.Regs[in.Rs1]
		c.setNZ(r)
		c.Regs[in.Rd] = r
	case OpSHL:
		r := c.Regs[in.Rs1] << (c.Regs[in.Rs2] & 31)
		c.setNZ(r)
		c.Regs[in.Rd] = r
	case OpSHR:
		r := c.Regs[in.Rs1] >> (c.Regs[in.Rs2] & 31)
		c.setNZ(r)
		c.Regs[in.Rd] = r
	case OpSHLI:
		r := c.Regs[in.Rs1] << (in.Imm & 31)
		c.setNZ(r)
		c.Regs[in.Rd] = r
	case OpSHRI:
		r := c.Regs[in.Rs1] >> (in.Imm & 31)
		c.setNZ(r)
		c.Regs[in.Rd] = r
	case OpCMP:
		c.subWithFlags(c.Regs[in.Rs1], c.Regs[in.Rs2])
	case OpCMPI:
		c.subWithFlags(c.Regs[in.Rs1], uint32(in.SImm()))
	case OpBEQ:
		if c.Flags.Z {
			nextPC = c.branchTarget(in.SImm())
		}
	case OpBNE:
		if !c.Flags.Z {
			nextPC = c.branchTarget(in.SImm())
		}
	case OpBLT:
		if c.Flags.N != c.Flags.V {
			nextPC = c.branchTarget(in.SImm())
		}
	case OpBGE:
		if c.Flags.N == c.Flags.V {
			nextPC = c.branchTarget(in.SImm())
		}
	case OpBGT:
		if !c.Flags.Z && c.Flags.N == c.Flags.V {
			nextPC = c.branchTarget(in.SImm())
		}
	case OpBLE:
		if c.Flags.Z || c.Flags.N != c.Flags.V {
			nextPC = c.branchTarget(in.SImm())
		}
	case OpBRA:
		nextPC = c.branchTarget(in.SImm())
	case OpCALL:
		c.Regs[RegLR] = c.PC + 4
		nextPC = c.branchTarget(in.SImm())
	case OpJR:
		nextPC = c.Regs[in.Rs1]
	case OpPUSH:
		addr := c.Regs[RegSP] - 4
		if !c.dataWrite(addr, c.Regs[in.Rs1]) {
			return c.status
		}
		c.Regs[RegSP] = addr
	case OpPOP:
		v, ok := c.dataRead(c.Regs[RegSP])
		if !ok {
			return c.status
		}
		c.Regs[in.Rd] = v
		c.Regs[RegSP] += 4
	case OpIN:
		c.Regs[in.Rd] = c.ports.cpuRead(in.Imm)
	case OpOUT:
		c.ports.cpuWrite(in.Imm, c.Regs[in.Rd])
	case OpTRAP:
		if handler, ok := c.trapHandlers[in.Imm]; ok {
			c.events = append(c.events, Detection{
				Mechanism: EDMAssertion, Cycle: c.cycle, PC: c.PC,
				Info: fmt.Sprintf("trap %d handled at %#x", in.Imm, handler),
			})
			nextPC = handler
		} else {
			switch in.Imm {
			case TrapEndIteration:
				c.status = StatusIterationEnd
			default:
				c.detect(EDMAssertion, fmt.Sprintf("trap %d", in.Imm))
				return c.status
			}
		}
	case OpKICK:
		c.lastKick = c.cycle
	}

	c.PC = nextPC
	c.instret++
	if c.TraceHook != nil && c.status == StatusRunning {
		c.TraceHook(c)
	}
	return c.status
}

// ResumeIteration continues execution after StatusIterationEnd, once the
// host has exchanged environment-simulator data through the ports.
func (c *CPU) ResumeIteration() error {
	if c.status != StatusIterationEnd {
		return fmt.Errorf("thor: resume in status %v", c.status)
	}
	c.status = StatusRunning
	return nil
}

// Run executes until halt, iteration end, error detection, or the cycle
// budget is exhausted.
func (c *CPU) Run(cycleBudget uint64) Status {
	if c.RunHook != nil {
		c.RunHook(c)
	}
	return c.run(cycleBudget)
}

// run is Run past its hook; RunFast, which has called the hook itself,
// hands over here.
func (c *CPU) run(cycleBudget uint64) Status {
	start := c.cycle
	for c.status == StatusRunning {
		if c.cycle-start >= cycleBudget {
			c.status = StatusOutOfBudget
			return c.status
		}
		c.Step()
	}
	return c.status
}

// ClearOutOfBudget returns an out-of-budget CPU to the running state so a
// caller with a larger budget can continue it.
func (c *CPU) ClearOutOfBudget() error {
	if c.status != StatusOutOfBudget {
		return fmt.Errorf("thor: clear-out-of-budget in status %v", c.status)
	}
	c.status = StatusRunning
	return nil
}

// CacheStats reports instruction and data cache hit/miss counts.
func (c *CPU) CacheStats() (iHits, iMisses, dHits, dMisses uint64) {
	iHits, iMisses = c.icache.stats()
	dHits, dMisses = c.dcache.stats()
	return iHits, iMisses, dHits, dMisses
}

// PinForceActive reports whether a pin-level force is currently driven
// onto the buses.
func (c *CPU) PinForceActive() bool { return c.force.Active }

// ClearTrapHandlers removes every installed trap handler. The map is
// cleared in place rather than reallocated: campaigns clear it once per
// experiment, and reusing the buckets keeps the reset allocation-free.
func (c *CPU) ClearTrapHandlers() { clear(c.trapHandlers) }
