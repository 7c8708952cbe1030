package thor_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"goofi/internal/asm"
	"goofi/internal/thor"
)

// The fast path's contract is byte identity: every architecturally
// visible bit — cycle count, instret, registers, flags, cache contents
// and counters, pins, detections, memory, port queues — must match
// cycle-accurate execution exactly. These tests drive random programs and targeted
// corner cases through Run and RunFast in lockstep and diff the full
// machine state.

// diffCPUs fails the test if the two CPUs differ in any observable way.
func diffCPUs(t *testing.T, slow, fast *thor.CPU, label string) {
	t.Helper()
	if a, b := slow.Status(), fast.Status(); a != b {
		t.Fatalf("%s: status %v != %v", label, a, b)
	}
	if a, b := slow.Cycle(), fast.Cycle(); a != b {
		t.Fatalf("%s: cycle %d != %d", label, a, b)
	}
	if a, b := slow.Instret(), fast.Instret(); a != b {
		t.Fatalf("%s: instret %d != %d", label, a, b)
	}
	if slow.PC != fast.PC {
		t.Fatalf("%s: pc %#x != %#x", label, slow.PC, fast.PC)
	}
	if slow.Regs != fast.Regs {
		t.Fatalf("%s: regs %v != %v", label, slow.Regs, fast.Regs)
	}
	if slow.Flags != fast.Flags {
		t.Fatalf("%s: flags %+v != %+v", label, slow.Flags, fast.Flags)
	}
	ih1, im1, dh1, dm1 := slow.CacheStats()
	ih2, im2, dh2, dm2 := fast.CacheStats()
	if ih1 != ih2 || im1 != im2 || dh1 != dh2 || dm1 != dm2 {
		t.Fatalf("%s: cache stats (%d,%d,%d,%d) != (%d,%d,%d,%d)",
			label, ih1, im1, dh1, dm1, ih2, im2, dh2, dm2)
	}
	if a, b := slow.Pins(), fast.Pins(); a != b {
		t.Fatalf("%s: pins %+v != %+v", label, a, b)
	}
	if !reflect.DeepEqual(slow.Events(), fast.Events()) {
		t.Fatalf("%s: events %+v != %+v", label, slow.Events(), fast.Events())
	}
	if !reflect.DeepEqual(slow.Detection(), fast.Detection()) {
		t.Fatalf("%s: detection %+v != %+v", label, slow.Detection(), fast.Detection())
	}
	// The scan chain covers regs, pc, flags, and both caches' full
	// contents including parity bits, plus the cycle/instret counters.
	if !slow.ScanRead().Equal(fast.ScanRead()) {
		t.Fatalf("%s: scan chains differ", label)
	}
	sz := int(slow.Config().MemSize)
	ma, err := slow.ReadMemory(0, sz)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := fast.ReadMemory(0, sz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ma, mb) {
		t.Fatalf("%s: memory differs", label)
	}
	for _, port := range diffPorts {
		if a, b := slow.Ports().PeekInput(port), fast.Ports().PeekInput(port); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: input port %#x queues %v != %v", label, port, a, b)
		}
		if a, b := slow.Ports().PeekOutput(port), fast.Ports().PeekOutput(port); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: output port %#x queues %v != %v", label, port, a, b)
		}
	}
}

// diffPorts are the ports diffCPUs compares: the four randProgram's IN and
// OUT address, and the far end of the port space for images that are not
// randProgram's.
var diffPorts = []uint16{0, 1, 2, 3, 0xFFFF}

// pushRandomInputs queues the same random values on the input ports of
// every CPU, so the INs of the drive that follows read something other
// than an idle bus.
func pushRandomInputs(rng *rand.Rand, cpus ...*thor.CPU) {
	for _, port := range diffPorts {
		vals := make([]uint32, rng.Intn(6))
		for i := range vals {
			vals[i] = rng.Uint32()
		}
		for _, c := range cpus {
			c.Ports().PushInput(port, vals...)
		}
	}
}

// exchangePorts is the host's side of an iteration boundary, done to
// every CPU alike: drain each output port — the drained values must agree
// — and queue a value derived from them on the input port of the same
// number.
func exchangePorts(t *testing.T, label string, cpus ...*thor.CPU) {
	t.Helper()
	for _, port := range diffPorts {
		first := cpus[0].Ports().DrainOutput(port)
		for _, c := range cpus[1:] {
			if outs := c.Ports().DrainOutput(port); !reflect.DeepEqual(first, outs) {
				t.Fatalf("%s: output port %#x drained %v != %v", label, port, first, outs)
			}
		}
		for _, c := range cpus {
			c.Ports().PushInput(port, uint32(len(first))<<16^uint32(port), 7)
		}
	}
}

// randProgram emits a random but structurally interesting instruction
// stream: arithmetic, memory traffic through a data window, short
// forward/backward branches, calls, traps (handled and terminal),
// watchdog kicks, and the occasional garbage word so illegal-opcode
// EDMs get exercised too.
func randProgram(rng *rand.Rand, words int) []byte {
	img := make([]byte, 0, words*4)
	emit := func(w uint32) { img = append(img, byte(w>>24), byte(w>>16), byte(w>>8), byte(w)) }
	enc := func(op thor.Opcode, rd, rs1, rs2 uint8, imm uint16) {
		emit(thor.Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm}.Encode())
	}
	reg := func() uint8 { return uint8(rng.Intn(13)) } // keep SP/LR out of the blast radius
	for i := 0; i < words; i++ {
		switch p := rng.Intn(100); {
		case p < 25: // register arithmetic / logic
			ops := []thor.Opcode{thor.OpADD, thor.OpSUB, thor.OpMUL, thor.OpAND,
				thor.OpOR, thor.OpXOR, thor.OpSHL, thor.OpSHR, thor.OpNOT, thor.OpMOV}
			enc(ops[rng.Intn(len(ops))], reg(), reg(), reg(), 0)
		case p < 40: // immediates
			ops := []thor.Opcode{thor.OpLDI, thor.OpLUI, thor.OpORI, thor.OpADDI,
				thor.OpSUBI, thor.OpSHLI, thor.OpSHRI, thor.OpCMPI}
			enc(ops[rng.Intn(len(ops))], reg(), reg(), 0, uint16(rng.Intn(1<<16)))
		case p < 50: // memory traffic: base register reloaded to a safe window first
			base := reg()
			enc(thor.OpLDI, base, 0, 0, uint16(0x4000+rng.Intn(64)*4))
			if rng.Intn(2) == 0 {
				enc(thor.OpLD, reg(), base, 0, uint16(rng.Intn(16)*4))
			} else {
				enc(thor.OpST, reg(), base, 0, uint16(rng.Intn(16)*4))
			}
			i += 2
		case p < 58: // compare + short conditional branch (forward only, bounded)
			enc(thor.OpCMP, 0, reg(), reg(), 0)
			br := []thor.Opcode{thor.OpBEQ, thor.OpBNE, thor.OpBLT,
				thor.OpBGE, thor.OpBGT, thor.OpBLE}
			enc(br[rng.Intn(len(br))], 0, 0, 0, uint16(1+rng.Intn(4)))
			i++
		case p < 62: // occasional short backward branch to re-run a stretch
			if i > 8 {
				enc(thor.OpCMPI, 0, reg(), 0, uint16(rng.Intn(4)))
				enc(thor.OpBEQ, 0, 0, 0, uint16(0x10000-uint32(2+rng.Intn(4))))
				i++
			} else {
				enc(thor.OpNOP, 0, 0, 0, 0)
			}
		case p < 70: // div/mod (divide-by-zero EDM reachable)
			if rng.Intn(4) == 0 {
				enc(thor.OpDIV, reg(), reg(), reg(), 0)
			} else {
				d := reg()
				enc(thor.OpLDI, d, 0, 0, uint16(1+rng.Intn(100)))
				enc(thor.OpMOD, reg(), reg(), d, 0)
				i++
			}
		case p < 76: // stack
			if rng.Intn(2) == 0 {
				enc(thor.OpPUSH, 0, reg(), 0, 0)
			} else {
				enc(thor.OpPOP, reg(), 0, 0, 0)
			}
		case p < 82: // ports
			if rng.Intn(2) == 0 {
				enc(thor.OpIN, reg(), 0, 0, uint16(rng.Intn(4)))
			} else {
				enc(thor.OpOUT, reg(), 0, 0, uint16(rng.Intn(4)))
			}
		case p < 88: // watchdog kick
			enc(thor.OpKICK, 0, 0, 0, 0)
		case p < 92: // handled trap or iteration end
			if rng.Intn(3) == 0 {
				enc(thor.OpTRAP, 0, 0, 0, thor.TrapEndIteration)
			} else {
				enc(thor.OpTRAP, 0, 0, 0, 7)
			}
		case p < 94: // raw garbage word — illegal opcodes must EDM identically
			emit(rng.Uint32())
		default:
			enc(thor.OpNOP, 0, 0, 0, 0)
		}
	}
	// Terminate deterministically if the stream runs off the end.
	hw := thor.Instr{Op: thor.OpHALT}.Encode()
	img = append(img, byte(hw>>24), byte(hw>>16), byte(hw>>8), byte(hw))
	return img
}

// newPair loads the same image into two fresh CPUs and installs
// identical trap handlers.
func newPair(t *testing.T, cfg thor.Config, img []byte) (slow, fast *thor.CPU) {
	t.Helper()
	slow, fast = thor.New(cfg), thor.New(cfg)
	for _, c := range []*thor.CPU{slow, fast} {
		if err := c.LoadMemory(0, img); err != nil {
			t.Fatal(err)
		}
		c.SetTrapHandler(7, 0) // handled trap restarts the program
	}
	return slow, fast
}

// driveLockstep runs both CPUs chunk by chunk (slow via Run, fast via
// RunFast), resuming iteration ends — after the host's exchange on the
// ports — and budget stops identically, and diffs the full state after
// every chunk.
func driveLockstep(t *testing.T, slow, fast *thor.CPU, chunk, maxCycles uint64) {
	t.Helper()
	for step := 0; ; step++ {
		a := slow.Run(chunk)
		b := fast.RunFast(chunk)
		if a != b {
			t.Fatalf("chunk %d: status %v != %v", step, a, b)
		}
		diffCPUs(t, slow, fast, fmt.Sprintf("chunk %d", step))
		if slow.Cycle() > maxCycles {
			return // ran long enough
		}
		switch a {
		case thor.StatusIterationEnd:
			exchangePorts(t, fmt.Sprintf("chunk %d", step), slow, fast)
			if err := slow.ResumeIteration(); err != nil {
				t.Fatal(err)
			}
			if err := fast.ResumeIteration(); err != nil {
				t.Fatal(err)
			}
		case thor.StatusOutOfBudget:
			if err := slow.ClearOutOfBudget(); err != nil {
				t.Fatal(err)
			}
			if err := fast.ClearOutOfBudget(); err != nil {
				t.Fatal(err)
			}
		default:
			return // halted or detected — terminal for this drive
		}
	}
}

func TestFastPathDifferentialRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			img := randProgram(rng, 64+rng.Intn(192))
			cfg := thor.DefaultConfig()
			cfg.WatchdogLimit = 5_000 // make watchdog reachable
			slow, fast := newPair(t, cfg, img)
			pushRandomInputs(rng, slow, fast)
			// Uneven chunk sizes stress the per-instruction budget compare.
			chunk := uint64(37 + rng.Intn(400))
			driveLockstep(t, slow, fast, chunk, 60_000)
		})
	}
}

func TestFastPathDifferentialDisabledCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	img := randProgram(rng, 128)
	cfg := thor.DefaultConfig()
	cfg.DisableCaches = true
	slow, fast := newPair(t, cfg, img)
	pushRandomInputs(rng, slow, fast)
	driveLockstep(t, slow, fast, 211, 40_000)
}

func TestFastPathDifferentialWatchdog(t *testing.T) {
	src := `
	loop:
		addi r1, r1, 1
		bra loop
	`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := thor.DefaultConfig()
	cfg.WatchdogLimit = 777
	slow, fast := newPair(t, cfg, prog.Image)
	a, b := slow.Run(1_000_000), fast.RunFast(1_000_000)
	if a != b || a != thor.StatusDetected {
		t.Fatalf("status %v / %v, want detected", a, b)
	}
	if slow.Detection().Mechanism != thor.EDMWatchdog {
		t.Fatalf("mechanism %v, want watchdog", slow.Detection().Mechanism)
	}
	diffCPUs(t, slow, fast, "watchdog")
}

// TestFastPathDifferentialScanWriteFaults injects the same random scan
// chain bit flip into both CPUs mid-run — including flips landing in
// icache data/parity arrays, which must invalidate the predecoded
// mirror — then continues both and diffs.
func TestFastPathDifferentialScanWriteFaults(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1000 + seed))
			img := randProgram(rng, 96)
			slow, fast := newPair(t, thor.DefaultConfig(), img)
			// Warm both up so the caches (and the fast CPU's predecoded
			// mirror) are populated.
			warm := uint64(50 + rng.Intn(500))
			if a, b := slow.Run(warm), fast.RunFast(warm); a != b {
				t.Fatalf("warmup status %v != %v", a, b)
			}
			if slow.Status() != thor.StatusOutOfBudget {
				t.Skip("program ended before warmup budget")
			}
			// Same single-bit fault into both scan chains.
			bit := rng.Intn(thor.ScanLen())
			for _, c := range []*thor.CPU{slow, fast} {
				v := c.ScanRead()
				v.Flip(bit)
				if err := c.ScanWrite(v); err != nil {
					t.Fatal(err)
				}
				if err := c.ClearOutOfBudget(); err != nil {
					t.Fatal(err)
				}
			}
			diffCPUs(t, slow, fast, "post-inject")
			pushRandomInputs(rng, slow, fast)
			driveLockstep(t, slow, fast, 173, 20_000)
		})
	}
}

// TestFastPathDifferentialWriteWord32 rewrites an instruction word
// mid-run on both CPUs (host-side SWIFI mutation); the icache update
// must invalidate the predecoded mirror.
func TestFastPathDifferentialWriteWord32(t *testing.T) {
	src := `
	loop:
		addi r1, r1, 1
		kick
		nop
		bra loop
	`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	slow, fast := newPair(t, thor.DefaultConfig(), prog.Image)
	if a, b := slow.Run(100), fast.RunFast(100); a != b {
		t.Fatalf("warmup status %v != %v", a, b)
	}
	// Replace the nop with halt while the loop line is hot in both
	// icaches (WriteWord32 write-through updates it).
	haltW := thor.Instr{Op: thor.OpHALT}.Encode()
	nopAddr := uint32(8) // third instruction
	for _, c := range []*thor.CPU{slow, fast} {
		if err := c.WriteWord32(nopAddr, haltW); err != nil {
			t.Fatal(err)
		}
		if err := c.ClearOutOfBudget(); err != nil {
			t.Fatal(err)
		}
	}
	a, b := slow.Run(100_000), fast.RunFast(100_000)
	if a != b || a != thor.StatusHalted {
		t.Fatalf("status %v / %v, want halted", a, b)
	}
	diffCPUs(t, slow, fast, "post-rewrite")
}

// TestFastPathDifferentialSnapshotRestore restores the same snapshot
// into both CPUs and continues one slow, one fast.
func TestFastPathDifferentialSnapshotRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	img := randProgram(rng, 128)
	slow, fast := newPair(t, thor.DefaultConfig(), img)
	pushRandomInputs(rng, slow) // they reach fast through the snapshot
	slow.Run(400)
	snap := slow.Snapshot()
	if err := fast.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := slow.Restore(snap); err != nil { // normalize both through Restore
		t.Fatal(err)
	}
	diffCPUs(t, slow, fast, "post-restore")
	if slow.Status() == thor.StatusOutOfBudget {
		slow.ClearOutOfBudget()
		fast.ClearOutOfBudget()
	}
	driveLockstep(t, slow, fast, 311, 30_000)
}

// TestStepBurstMatchesStepLoop pins StepBurst to the exact semantics of
// the equivalent Step loop (status check, then step, no out-of-budget
// transition).
func TestStepBurstMatchesStepLoop(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		img := randProgram(rng, 96)
		slow, fast := newPair(t, thor.DefaultConfig(), img)
		pushRandomInputs(rng, slow, fast)
		for burst := 0; burst < 50; burst++ {
			budget := uint64(1 + rng.Intn(200))
			start := slow.Cycle()
			for slow.Status() == thor.StatusRunning && slow.Cycle()-start < budget {
				slow.Step()
			}
			fast.StepBurst(budget)
			diffCPUs(t, slow, fast, fmt.Sprintf("seed %d burst %d", seed, burst))
			if slow.Status() == thor.StatusIterationEnd {
				exchangePorts(t, fmt.Sprintf("seed %d burst %d", seed, burst), slow, fast)
				slow.ResumeIteration()
				fast.ResumeIteration()
			} else if slow.Status() != thor.StatusRunning {
				break
			}
		}
	}
}

// Benchmarks: the fast path against cycle-accurate execution on a busy
// loop.

func benchImage(b *testing.B) []byte {
	b.Helper()
	prog, err := asm.Assemble(`
		ldi r2, 1
	loop:
		addi r2, r2, 1
		mul r3, r2, r2
		xor r4, r3, r2
		and r5, r4, r3
		kick
		cmpi r2, 0
		bne loop
		halt
	`)
	if err != nil {
		b.Fatal(err)
	}
	return prog.Image
}

func benchRun(b *testing.B, fast bool) {
	img := benchImage(b)
	c := thor.New(thor.DefaultConfig())
	if err := c.LoadMemory(0, img); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st thor.Status
		if fast {
			st = c.RunFast(10_000)
		} else {
			st = c.Run(10_000)
		}
		if st != thor.StatusOutOfBudget {
			b.Fatalf("status %v", st)
		}
		b.StopTimer()
		if err := c.ClearOutOfBudget(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkRun(b *testing.B)     { benchRun(b, false) }
func BenchmarkRunFast(b *testing.B) { benchRun(b, true) }
