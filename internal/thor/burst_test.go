package thor_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"goofi/internal/asm"
	"goofi/internal/thor"
)

// RunFast runs as one burst — no call per instruction — when no
// TraceHook is installed once the RunHook has returned. These tests pin that precondition from
// both sides, and the two compares the burst may not hoist: the budget
// and the watchdog.

const burstLoopSource = `
	ldi r1, 0
	ldi r2, 1
loop:
	add r1, r1, r2
	addi r2, r2, 1
	kick
	cmpi r2, 200
	ble loop
	halt
`

func burstLoopPair(t *testing.T) (slow, fast *thor.CPU, loop uint32) {
	t.Helper()
	prog, err := asm.Assemble(burstLoopSource)
	if err != nil {
		t.Fatal(err)
	}
	slow, fast = newPair(t, thor.DefaultConfig(), prog.Image)
	return slow, fast, prog.MustSymbol("loop")
}

// TestBurstRunHookInstallsTraceHook: a RunHook runs before the
// precondition is read, so a TraceHook it installs at Run entry sees every
// instruction of RunFast, as it does of Run, and the two end alike.
func TestBurstRunHookInstallsTraceHook(t *testing.T) {
	slow, fast, _ := burstLoopPair(t)
	seen := map[*thor.CPU]uint64{}
	for _, c := range []*thor.CPU{slow, fast} {
		c.RunHook = func(cc *thor.CPU) {
			cc.RunHook = nil
			cc.TraceHook = func(cc *thor.CPU) { seen[cc]++ }
		}
	}
	if a, b := slow.Run(100_000), fast.RunFast(100_000); a != b || a != thor.StatusHalted {
		t.Fatalf("status %v / %v, want halted", a, b)
	}
	if seen[slow] == 0 || seen[fast] != seen[slow] {
		t.Fatalf("TraceHook saw %d instructions of RunFast, %d of Run", seen[fast], seen[slow])
	}
	diffCPUs(t, slow, fast, "halted")
}

// TestBurstStopsMidRunOnBudget: a budget that runs out in the middle of
// the loop stops RunFast on the cycle it stops Run, and a run resumed from
// there, with a budget again or to the end, goes on alike.
func TestBurstStopsMidRunOnBudget(t *testing.T) {
	slow, fast, _ := burstLoopPair(t)
	for stop, budget := range []uint64{1, 5, 7, 23, 2, 40} {
		if a, b := slow.Run(budget), fast.RunFast(budget); a != b || a != thor.StatusOutOfBudget {
			t.Fatalf("stop %d: status %v / %v, want out of budget", stop, a, b)
		}
		diffCPUs(t, slow, fast, fmt.Sprintf("stop %d", stop))
		for _, c := range []*thor.CPU{slow, fast} {
			if err := c.ClearOutOfBudget(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a, b := slow.Run(100_000), fast.RunFast(100_000); a != b || a != thor.StatusHalted {
		t.Fatalf("final: status %v / %v, want halted", a, b)
	}
	diffCPUs(t, slow, fast, "final")
}

// TestBurstWatchdogExpiresMidBurst: the watchdog compare stays per
// instruction inside the burst. A loop that stops kicking is detected on
// the same cycle by Run, by RunFast and by StepBurst, whether the budget
// ends long after the expiry or a few cycles either side of it.
func TestBurstWatchdogExpiresMidBurst(t *testing.T) {
	prog, err := asm.Assemble(`
		ldi r2, 0
	warm:
		kick
		addi r2, r2, 1
		cmpi r2, 50
		blt warm
	spin:
		addi r1, r1, 1
		bra spin
	`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := thor.DefaultConfig()
	cfg.WatchdogLimit = 333
	ref := thor.New(cfg)
	if err := ref.LoadMemory(0, prog.Image); err != nil {
		t.Fatal(err)
	}
	if st := ref.Run(1_000_000); st != thor.StatusDetected || ref.Detection().Mechanism != thor.EDMWatchdog {
		t.Fatalf("reference: status %v, detection %+v", st, ref.Detection())
	}
	expiry := ref.Cycle()
	for _, budget := range []uint64{expiry - 3, expiry - 1, expiry, expiry + 1, expiry + 3, 1_000_000} {
		slow, fast := newPair(t, cfg, prog.Image)
		if a, b := slow.Run(budget), fast.RunFast(budget); a != b {
			t.Fatalf("budget %d: status %v != %v", budget, a, b)
		}
		diffCPUs(t, slow, fast, fmt.Sprintf("RunFast, budget %d", budget))

		slow, fast = newPair(t, cfg, prog.Image)
		for slow.Status() == thor.StatusRunning && slow.Cycle() < budget {
			slow.Step()
		}
		fast.StepBurst(budget)
		diffCPUs(t, slow, fast, fmt.Sprintf("StepBurst, budget %d", budget))
		if budget > expiry+3 && fast.Cycle() != expiry {
			t.Fatalf("StepBurst detected the watchdog at cycle %d, Run at %d", fast.Cycle(), expiry)
		}
	}
}

// TestBurstBudgetAtEveryCycleOffset: the budget compare stays per
// instruction too. Over a 40-instruction stretch of mixed costs — mirror
// hits, a line fill every fourth fetch, multiplies, divides, stores — a
// budget of every length from nothing to past the end stops RunFast on
// Run's cycle, and StepBurst on the step loop's.
func TestBurstBudgetAtEveryCycleOffset(t *testing.T) {
	src := "\tldi r1, 3\n\tldi r2, 5\n\tla r6, buf\n"
	for i := 0; i < 9; i++ {
		src += "\tmul r3, r1, r2\n\tadd r1, r1, r3\n\tst [r6], r1\n\tdiv r4, r3, r2\n"
	}
	src += "\thalt\nbuf:\n\t.word 0\n"
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	ref := thor.New(thor.DefaultConfig())
	if err := ref.LoadMemory(0, prog.Image); err != nil {
		t.Fatal(err)
	}
	if st := ref.Run(1_000_000); st != thor.StatusHalted || ref.Instret() != 41 {
		t.Fatalf("reference: status %v after %d instructions, want a halt after 41", st, ref.Instret())
	}
	for budget := uint64(0); budget <= ref.Cycle()+2; budget++ {
		slow, fast := newPair(t, thor.DefaultConfig(), prog.Image)
		if a, b := slow.Run(budget), fast.RunFast(budget); a != b {
			t.Fatalf("budget %d: status %v != %v", budget, a, b)
		}
		diffCPUs(t, slow, fast, fmt.Sprintf("RunFast, budget %d", budget))
		// And on from there, so a stop in mid-stretch is resumed from.
		if slow.Status() == thor.StatusOutOfBudget {
			slow.ClearOutOfBudget()
			fast.ClearOutOfBudget()
			slow.Run(7)
			fast.RunFast(7)
			diffCPUs(t, slow, fast, fmt.Sprintf("RunFast, budget %d then 7", budget))
		}

		slow, fast = newPair(t, thor.DefaultConfig(), prog.Image)
		for slow.Status() == thor.StatusRunning && slow.Cycle() < budget {
			slow.Step()
		}
		fast.StepBurst(budget)
		diffCPUs(t, slow, fast, fmt.Sprintf("StepBurst, budget %d", budget))
	}
}

// fuzzFastPath drives one image three ways — Run, RunFast, and StepBurst
// with the out-of-budget transition Run makes added by hand — in chunks
// whose sizes come from knobs, with the host's port exchange at iteration
// ends, one scan-write corruption and one snapshot/restore on the way, and
// diffs the three machines whole after every chunk.
func fuzzFastPath(t *testing.T, img []byte, knobs uint64) {
	cfg := thor.DefaultConfig()
	cfg.WatchdogLimit = 3_000
	if len(img) > int(cfg.MemSize) {
		img = img[:cfg.MemSize]
	}
	rng := rand.New(rand.NewSource(int64(knobs)))
	slow, fast := newPair(t, cfg, img)
	burst, _ := newPair(t, cfg, img)
	cpus := []*thor.CPU{slow, fast, burst}
	pushRandomInputs(rng, cpus...)
	corruptAt, restoreAt := rng.Intn(12), rng.Intn(12)
	for step := 0; step < 40 && slow.Cycle() < 30_000; step++ {
		label := fmt.Sprintf("chunk %d", step)
		if step == corruptAt {
			bit := rng.Intn(thor.ScanLen())
			for _, c := range cpus {
				v := c.ScanRead()
				v.Flip(bit)
				if err := c.ScanWrite(v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if step == restoreAt {
			snap := slow.Snapshot()
			// burst takes the board's way in: reset, memory cleared and the
			// image reloaded, so its restore lands on other pages than the
			// other two's.
			burst.Reset()
			burst.ClearMemory()
			if err := burst.LoadMemory(0, img); err != nil {
				t.Fatal(err)
			}
			want := bytes.Join(snap.MemPages, nil)
			for _, c := range cpus {
				if err := c.Restore(snap); err != nil {
					t.Fatal(err)
				}
				if got, _ := c.ReadMemory(0, len(want)); !bytes.Equal(got, want) {
					t.Fatalf("%s: restored memory differs from the snapshot's", label)
				}
			}
		}
		chunk := uint64(1 + rng.Intn(300))
		if rng.Intn(4) == 0 {
			chunk = uint64(1 + rng.Intn(4)) // stops in the middle of everything
		}
		a, b := slow.Run(chunk), fast.RunFast(chunk)
		if a != b {
			t.Fatalf("%s: status %v != %v", label, a, b)
		}
		diffCPUs(t, slow, fast, label+", RunFast")
		if a == thor.StatusOutOfBudget {
			for _, c := range cpus[:2] {
				if err := c.ClearOutOfBudget(); err != nil {
					t.Fatal(err)
				}
			}
		}
		burst.StepBurst(chunk)
		diffCPUs(t, slow, burst, label+", StepBurst")
		switch slow.Status() {
		case thor.StatusRunning:
		case thor.StatusIterationEnd:
			exchangePorts(t, label, cpus...)
			for _, c := range cpus {
				if err := c.ResumeIteration(); err != nil {
					t.Fatal(err)
				}
			}
		default:
			return // halted or detected
		}
	}
}

// FuzzFastPathVsStep is the thor decoder against the fast path's
// predecode mirror on any image: random bytes as instructions, random
// chunk sizes, a corrupted scan chain and a restored snapshot in mid-run.
func FuzzFastPathVsStep(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		f.Add(randProgram(rng, 32+rng.Intn(96)), rng.Uint64())
	}
	prog, err := asm.Assemble(burstLoopSource)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(prog.Image, uint64(1))
	f.Add([]byte{}, uint64(2))
	garbage := make([]byte, 64)
	binary.BigEndian.PutUint64(garbage[8:], 0x2100_0000_1F00_FFFF) // jr r0; bra -1
	f.Add(garbage, uint64(3))
	for i, d := range derailSeeds {
		f.Add(derailImage(f, d.pad, d.target), uint64(i))
	}
	pages, err := asm.Assemble(pageStoreSource)
	if err != nil {
		f.Fatal(err)
	}
	for _, k := range pageStoreKnobs {
		f.Add(pages.Image, k)
	}
	f.Fuzz(fuzzFastPath)
}

// pageStoreSource stores one word every 0x1F0 bytes across 26 KiB of
// memory, pass after pass, alternately 0x5A5A and zero: a snapshot in
// mid-run holds pages written non-zero, pages written back to zero and
// pages never written, and the clear before burst's restore meets them.
const pageStoreSource = `
	ldi r4, 0x5A5A
	ldi r6, 0x5A5A
outer:
	ldi r2, 0x400
loop:
	st [r2], r4
	addi r2, r2, 0x1F0
	kick
	cmpi r2, 0x7000
	blt loop
	xor r4, r4, r6
	bra outer
`

// pageStoreKnobs seed fuzzFastPath's chunking and restore point for
// pageStoreSource: each restores after a different number of chunks.
var pageStoreKnobs = []uint64{11, 12, 17, 23, 42, 77}

// derailSeeds are runs a flipped PC sends into zeroed memory: to a line
// start, into a line, and off word alignment. The NOPs there run until
// fuzzFastPath's 3,000-cycle watchdog expires, and the pad instructions
// between the kick and the jump move that expiry across the four fetches
// of a line the fast path would cross.
var derailSeeds = []struct {
	pad    int
	target uint32
}{
	{0, 0x2000}, {1, 0x2004}, {2, 0x2008}, {3, 0x200C}, {2, 0x2000}, {3, 0x2004}, {0, 0x2002},
}

func derailImage(tb testing.TB, pad int, target uint32) []byte {
	tb.Helper()
	prog, err := asm.Assemble(jumpTo(pad, target))
	if err != nil {
		tb.Fatal(err)
	}
	return prog.Image
}

// TestFastPathVsStepSeeds runs the fuzz property over seeded images —
// randProgram's, the same with a tenth of their bytes randomised, and the
// derailed runs under several chunkings — so the plain test run covers it
// beyond the fuzzer's few corpus entries.
func TestFastPathVsStepSeeds(t *testing.T) {
	for i, d := range derailSeeds {
		for k := uint64(0); k < 8; k++ {
			fuzzFastPath(t, derailImage(t, d.pad, d.target), uint64(i)<<8|k)
		}
	}
	pages, err := asm.Assemble(pageStoreSource)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range pageStoreKnobs {
		fuzzFastPath(t, pages.Image, k)
	}
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		img := randProgram(rng, 32+rng.Intn(160))
		if seed%2 == 1 {
			for i := 0; i < len(img)/10; i++ {
				img[rng.Intn(len(img))] = byte(rng.Intn(256))
			}
		}
		fuzzFastPath(t, img, rng.Uint64())
	}
}
