package thor_test

import (
	"testing"

	"goofi/internal/asm"
	"goofi/internal/thor"
)

// load assembles src into a fresh CPU with the given config.
func load(t *testing.T, cfg thor.Config, src string) (*thor.CPU, *asm.Program) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := thor.New(cfg)
	if err := c.LoadMemory(0, prog.Image); err != nil {
		t.Fatalf("load: %v", err)
	}
	return c, prog
}

func run(t *testing.T, c *thor.CPU) thor.Status {
	t.Helper()
	return c.Run(1_000_000)
}

func TestArithmeticProgram(t *testing.T) {
	c, prog := load(t, thor.DefaultConfig(), `
		ldi r1, 6
		ldi r2, 7
		mul r3, r1, r2
		la r4, result
		st [r4], r3
		halt
	result:
		.word 0
	`)
	if st := run(t, c); st != thor.StatusHalted {
		t.Fatalf("status = %v, want halted (detection: %+v)", st, c.Detection())
	}
	w, err := c.ReadWord32(prog.MustSymbol("result"))
	if err != nil {
		t.Fatal(err)
	}
	if w != 42 {
		t.Errorf("result = %d, want 42", w)
	}
}

func TestBranchesAndLoop(t *testing.T) {
	c, prog := load(t, thor.DefaultConfig(), `
		ldi r1, 0    ; sum
		ldi r2, 1    ; i
	loop:
		add r1, r1, r2
		addi r2, r2, 1
		cmpi r2, 10
		ble loop
		la r3, sum
		st [r3], r1
		halt
	sum:
		.word 0
	`)
	if st := run(t, c); st != thor.StatusHalted {
		t.Fatalf("status = %v (detection %+v)", st, c.Detection())
	}
	w, _ := c.ReadWord32(prog.MustSymbol("sum"))
	if w != 55 {
		t.Errorf("sum 1..10 = %d, want 55", w)
	}
}

func TestCallRetStack(t *testing.T) {
	c, prog := load(t, thor.DefaultConfig(), `
		ldi r1, 5
		call double
		la r2, out
		st [r2], r1
		halt
	double:
		push r3
		mov r3, r1
		add r1, r3, r3
		pop r3
		ret
	out:
		.word 0
	`)
	if st := run(t, c); st != thor.StatusHalted {
		t.Fatalf("status = %v (detection %+v)", st, c.Detection())
	}
	w, _ := c.ReadWord32(prog.MustSymbol("out"))
	if w != 10 {
		t.Errorf("double(5) = %d, want 10", w)
	}
}

func TestSignedComparisons(t *testing.T) {
	// Compute min(-3, 2) using BLT.
	c, prog := load(t, thor.DefaultConfig(), `
		ldi r1, -3
		ldi r2, 2
		cmp r1, r2
		blt takefirst
		mov r3, r2
		bra store
	takefirst:
		mov r3, r1
	store:
		la r4, out
		st [r4], r3
		halt
	out:
		.word 0
	`)
	if st := run(t, c); st != thor.StatusHalted {
		t.Fatalf("status = %v", st)
	}
	w, _ := c.ReadWord32(prog.MustSymbol("out"))
	if int32(w) != -3 {
		t.Errorf("min = %d, want -3", int32(w))
	}
}

func TestEDMIllegalOpcode(t *testing.T) {
	c := thor.New(thor.DefaultConfig())
	if err := c.WriteWord32(0, 0xFF000000); err != nil {
		t.Fatal(err)
	}
	if st := run(t, c); st != thor.StatusDetected {
		t.Fatalf("status = %v, want detected", st)
	}
	if got := c.Detection().Mechanism; got != thor.EDMIllegalOp {
		t.Errorf("mechanism = %v, want illegal-opcode", got)
	}
}

func TestEDMDivideByZero(t *testing.T) {
	c, _ := load(t, thor.DefaultConfig(), `
		ldi r1, 10
		ldi r2, 0
		div r3, r1, r2
		halt
	`)
	if st := run(t, c); st != thor.StatusDetected {
		t.Fatalf("status = %v, want detected", st)
	}
	if got := c.Detection().Mechanism; got != thor.EDMDivZero {
		t.Errorf("mechanism = %v", got)
	}
}

func TestEDMOverflow(t *testing.T) {
	c, _ := load(t, thor.DefaultConfig(), `
		lui r1, 0x7fff
		ori r1, r1, 0xffff  ; r1 = MaxInt32
		addi r2, r1, 1
		halt
	`)
	if st := run(t, c); st != thor.StatusDetected {
		t.Fatalf("status = %v, want detected", st)
	}
	if got := c.Detection().Mechanism; got != thor.EDMOverflow {
		t.Errorf("mechanism = %v", got)
	}
	// With the trap disabled the same program wraps and halts.
	cfg := thor.DefaultConfig()
	cfg.TrapOnOverflow = false
	c2, _ := load(t, cfg, `
		lui r1, 0x7fff
		ori r1, r1, 0xffff
		addi r2, r1, 1
		halt
	`)
	if st := run(t, c2); st != thor.StatusHalted {
		t.Fatalf("status with trap disabled = %v, want halted", st)
	}
	if c2.Regs[2] != 0x8000_0000 {
		t.Errorf("wrapped value = %#x", c2.Regs[2])
	}
}

func TestEDMMemRangeAndMisaligned(t *testing.T) {
	c, _ := load(t, thor.DefaultConfig(), `
		lui r1, 0x0010   ; 0x100000, beyond 64 KiB
		ld r2, [r1]
		halt
	`)
	if st := run(t, c); st != thor.StatusDetected {
		t.Fatalf("status = %v", st)
	}
	if got := c.Detection().Mechanism; got != thor.EDMMemRange {
		t.Errorf("mechanism = %v, want memory-range", got)
	}

	c2, _ := load(t, thor.DefaultConfig(), `
		ldi r1, 2
		ld r2, [r1]   ; misaligned
		halt
	`)
	if st := run(t, c2); st != thor.StatusDetected {
		t.Fatalf("status = %v", st)
	}
	if got := c2.Detection().Mechanism; got != thor.EDMMisaligned {
		t.Errorf("mechanism = %v, want misaligned", got)
	}
}

func TestEDMWatchdog(t *testing.T) {
	cfg := thor.DefaultConfig()
	cfg.WatchdogLimit = 100
	c, _ := load(t, cfg, `
	loop:
		bra loop
	`)
	if st := run(t, c); st != thor.StatusDetected {
		t.Fatalf("status = %v, want detected", st)
	}
	if got := c.Detection().Mechanism; got != thor.EDMWatchdog {
		t.Errorf("mechanism = %v, want watchdog", got)
	}
	// Kicking keeps it alive until HALT.
	c2, _ := load(t, cfg, `
		ldi r1, 0
	loop:
		kick
		addi r1, r1, 1
		cmpi r1, 200
		blt loop
		halt
	`)
	if st := run(t, c2); st != thor.StatusHalted {
		t.Fatalf("kicked loop status = %v, want halted", st)
	}
}

func TestEDMAssertionTrapWithoutHandler(t *testing.T) {
	c, _ := load(t, thor.DefaultConfig(), `
		trap 1
		halt
	`)
	if st := run(t, c); st != thor.StatusDetected {
		t.Fatalf("status = %v", st)
	}
	if got := c.Detection().Mechanism; got != thor.EDMAssertion {
		t.Errorf("mechanism = %v, want assertion", got)
	}
}

func TestTrapHandlerRecovery(t *testing.T) {
	c, prog := load(t, thor.DefaultConfig(), `
		trap 1        ; assertion fails but handler recovers
		halt          ; skipped
	recover:
		ldi r1, 99
		la r2, out
		st [r2], r1
		halt
	out:
		.word 0
	`)
	c.SetTrapHandler(thor.TrapAssertFail, prog.MustSymbol("recover"))
	if st := run(t, c); st != thor.StatusHalted {
		t.Fatalf("status = %v, want halted after recovery", st)
	}
	w, _ := c.ReadWord32(prog.MustSymbol("out"))
	if w != 99 {
		t.Errorf("recovery marker = %d, want 99", w)
	}
	events := c.Events()
	if len(events) != 1 || events[0].Mechanism != thor.EDMAssertion {
		t.Errorf("events = %+v, want one recovered assertion", events)
	}
}

func TestIterationEndAndResume(t *testing.T) {
	c, _ := load(t, thor.DefaultConfig(), `
		in r1, 0
		addi r1, r1, 1
		out 1, r1
		trap 2
		in r1, 0
		addi r1, r1, 1
		out 1, r1
		halt
	`)
	c.Ports().PushInput(0, 10)
	if st := run(t, c); st != thor.StatusIterationEnd {
		t.Fatalf("status = %v, want iteration-end", st)
	}
	out := c.Ports().DrainOutput(1)
	if len(out) != 1 || out[0] != 11 {
		t.Fatalf("first iteration output = %v, want [11]", out)
	}
	c.Ports().PushInput(0, 20)
	if err := c.ResumeIteration(); err != nil {
		t.Fatal(err)
	}
	if st := run(t, c); st != thor.StatusHalted {
		t.Fatalf("status = %v, want halted", st)
	}
	out = c.Ports().DrainOutput(1)
	if len(out) != 1 || out[0] != 21 {
		t.Fatalf("second iteration output = %v, want [21]", out)
	}
	if err := c.ResumeIteration(); err == nil {
		t.Error("ResumeIteration in halted state did not error")
	}
}

func TestOutOfBudget(t *testing.T) {
	c, _ := load(t, thor.Config{WatchdogLimit: 0}, `
	loop:
		bra loop
	`)
	if st := c.Run(1000); st != thor.StatusOutOfBudget {
		t.Fatalf("status = %v, want out-of-budget", st)
	}
	if err := c.ClearOutOfBudget(); err != nil {
		t.Fatal(err)
	}
	if st := c.Run(1000); st != thor.StatusOutOfBudget {
		t.Fatalf("second run status = %v", st)
	}
}

func TestSnapshotRestoreDeterminism(t *testing.T) {
	src := `
		ldi r1, 0
		ldi r2, 1
	loop:
		add r1, r1, r2
		addi r2, r2, 1
		cmpi r2, 50
		blt loop
		halt
	`
	c, _ := load(t, thor.DefaultConfig(), src)
	// Run halfway, snapshot, run to completion twice from the snapshot.
	for i := 0; i < 40; i++ {
		c.Step()
	}
	snap := c.Snapshot()
	if st := run(t, c); st != thor.StatusHalted {
		t.Fatalf("status = %v", st)
	}
	final1 := c.Regs[1]
	cycles1 := c.Cycle()
	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if st := run(t, c); st != thor.StatusHalted {
		t.Fatalf("status after restore = %v", st)
	}
	if c.Regs[1] != final1 || c.Cycle() != cycles1 {
		t.Errorf("nondeterministic replay: r1 %d vs %d, cycles %d vs %d",
			c.Regs[1], final1, c.Cycle(), cycles1)
	}
}

func TestRestoreSizeMismatch(t *testing.T) {
	c1 := thor.New(thor.Config{MemSize: 4096})
	c2 := thor.New(thor.Config{MemSize: 8192})
	if err := c2.Restore(c1.Snapshot()); err == nil {
		t.Error("Restore with mismatched memory size did not error")
	}
}

func TestCacheHitsAndStats(t *testing.T) {
	c, _ := load(t, thor.DefaultConfig(), `
		ldi r1, 0
	loop:
		addi r1, r1, 1
		cmpi r1, 100
		blt loop
		halt
	`)
	if st := run(t, c); st != thor.StatusHalted {
		t.Fatalf("status = %v", st)
	}
	iHits, iMisses, _, _ := c.CacheStats()
	if iMisses == 0 {
		t.Error("expected at least one icache miss (cold start)")
	}
	if iHits < 100 {
		t.Errorf("icache hits = %d, expected many for a tight loop", iHits)
	}
}

func TestDisableCaches(t *testing.T) {
	cfg := thor.DefaultConfig()
	cfg.DisableCaches = true
	c, _ := load(t, cfg, `
		ldi r1, 1
		halt
	`)
	if st := run(t, c); st != thor.StatusHalted {
		t.Fatalf("status = %v", st)
	}
	iHits, iMisses, _, _ := c.CacheStats()
	if iHits != 0 || iMisses != 0 {
		t.Errorf("cache touched while disabled: hits=%d misses=%d", iHits, iMisses)
	}
}

func TestHostMemoryAccessErrors(t *testing.T) {
	c := thor.New(thor.Config{MemSize: 1024})
	if err := c.LoadMemory(1020, []byte{1, 2, 3, 4, 5}); err == nil {
		t.Error("LoadMemory overflow did not error")
	}
	if _, err := c.ReadMemory(0, -1); err == nil {
		t.Error("ReadMemory negative size did not error")
	}
	if _, err := c.ReadMemory(1020, 8); err == nil {
		t.Error("ReadMemory overflow did not error")
	}
	if _, err := c.ReadWord32(2048); err == nil {
		t.Error("ReadWord32 out of range did not error")
	}
}

func TestWriteWord32CacheCoherence(t *testing.T) {
	// Execute a load to warm the cache, then change memory host-side and
	// reload: the CPU must observe the new value (host writes update the
	// cache, modelling pre-runtime SWIFI mutation after a warm-up run).
	c, prog := load(t, thor.DefaultConfig(), `
		la r1, var
		ld r2, [r1]
		ld r3, [r1]
		halt
	var:
		.word 5
	`)
	addr := prog.MustSymbol("var")
	// Step through la (2 instrs) + first ld to warm the cache.
	for i := 0; i < 3; i++ {
		c.Step()
	}
	if c.Regs[2] != 5 {
		t.Fatalf("first load = %d, want 5", c.Regs[2])
	}
	if err := c.WriteWord32(addr, 77); err != nil {
		t.Fatal(err)
	}
	if st := run(t, c); st != thor.StatusHalted {
		t.Fatalf("status = %v", st)
	}
	if c.Regs[3] != 77 {
		t.Errorf("second load = %d, want 77 (stale cache line)", c.Regs[3])
	}
}

func TestTraceHook(t *testing.T) {
	c, _ := load(t, thor.DefaultConfig(), `
		ldi r1, 1
		ldi r2, 2
		halt
	`)
	var pcs []uint32
	c.TraceHook = func(c *thor.CPU) { pcs = append(pcs, c.PC) }
	run(t, c)
	// Hook fires after each retired instruction while still running:
	// after ldi@0 (PC=4), after ldi@4 (PC=8). HALT stops before the hook.
	if len(pcs) != 2 || pcs[0] != 4 || pcs[1] != 8 {
		t.Errorf("trace PCs = %v, want [4 8]", pcs)
	}
}

func TestStatusStrings(t *testing.T) {
	for st, want := range map[thor.Status]string{
		thor.StatusRunning:      "running",
		thor.StatusHalted:       "halted",
		thor.StatusIterationEnd: "iteration-end",
		thor.StatusDetected:     "detected",
		thor.StatusOutOfBudget:  "out-of-budget",
	} {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(st), st, want)
		}
	}
	for m := thor.EDMParityI; m <= thor.EDMAssertion; m++ {
		if m.String() == "" || m.String() == "none" {
			t.Errorf("EDM %d has bad name %q", int(m), m)
		}
	}
}

func TestPinSampling(t *testing.T) {
	c, prog := load(t, thor.DefaultConfig(), `
		la r1, var
		ldi r2, 0x1234
		st [r1], r2
		halt
	var:
		.word 0
	`)
	// Step through la (2 instructions), ldi, st: the store's bus activity
	// is the most recent sample. The pins are sampled continuously, so a
	// later fetch would overwrite them.
	for i := 0; i < 4; i++ {
		c.Step()
	}
	p := c.Pins()
	if p.Address != prog.MustSymbol("var") || p.DataOut != 0x1234 || !p.Write {
		t.Errorf("pins after store = %+v", p)
	}
	run(t, c)
	if !c.Pins().Halt {
		t.Error("halt pin not asserted after HALT")
	}
}
