package thor_test

import (
	"fmt"
	"strings"
	"testing"

	"goofi/internal/asm"
	"goofi/internal/thor"
)

// A run whose PC a fault sent into zeroed memory executes NOPs — word 0
// decodes as one — until the memory-range EDM at the end of memory, and the
// fast path crosses each all-zero icache line it misses on as one step
// (crossZeroLines). TestZeroLineCrossing holds that to Step: every case
// drives one image three ways — Run, RunFast, and StepBurst — and diffs
// the three machines whole after every call; MirrorLive tells whether the
// fast path crossed a line or stepped through it, so no case passes by
// never reaching the crossing, or by reaching it where it must not.

// zeroMem is the memory size of most cases: code below sledAt, then 64
// lines of zeros up to the memory-range EDM.
const (
	zeroMem = 0x800
	sledAt  = 0x400
)

// jumpTo is a derailed run's start: a kick, pad instructions, then a jump
// to target.
func jumpTo(pad int, target uint32) string {
	return "\tkick\n" + strings.Repeat("\taddi r2, r2, 1\n", pad) +
		fmt.Sprintf("\tldi r1, %d\n\tjr r1\n", target)
}

// zeroTrio is one machine three times over.
type zeroTrio struct{ slow, fast, burst *thor.CPU }

func newZeroTrio(t *testing.T, cfg thor.Config, src string) *zeroTrio {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	z := &zeroTrio{thor.New(cfg), thor.New(cfg), thor.New(cfg)}
	for _, c := range z.all() {
		if err := c.LoadMemory(0, prog.Image); err != nil {
			t.Fatal(err)
		}
	}
	return z
}

func zeroConfig(mem uint32) thor.Config {
	cfg := thor.DefaultConfig()
	cfg.MemSize = mem
	return cfg
}

func (z *zeroTrio) all() []*thor.CPU { return []*thor.CPU{z.slow, z.fast, z.burst} }

// run drives the three by one budget — Run, RunFast, and StepBurst, whose
// caller makes Run's out-of-budget transition — diffs them after each call
// and returns Run's status. A budget stop is cleared on all three.
func (z *zeroTrio) run(t *testing.T, budget uint64, label string) thor.Status {
	t.Helper()
	st, fst := z.slow.Run(budget), z.fast.RunFast(budget)
	if st != fst {
		t.Fatalf("%s: status %v != %v", label, st, fst)
	}
	diffCPUs(t, z.slow, z.fast, label+", RunFast")
	if st == thor.StatusOutOfBudget {
		for _, c := range z.all()[:2] {
			if err := c.ClearOutOfBudget(); err != nil {
				t.Fatal(err)
			}
		}
	}
	z.burst.StepBurst(budget)
	diffCPUs(t, z.slow, z.burst, label+", StepBurst")
	return st
}

// finish drives the three in chunks of the given budget until they stop.
func (z *zeroTrio) finish(t *testing.T, chunk uint64, label string) thor.Status {
	t.Helper()
	for i := 0; ; i++ {
		if st := z.run(t, chunk, fmt.Sprintf("%s, chunk %d", label, i)); st != thor.StatusOutOfBudget {
			return st
		}
	}
}

// land runs the three an instruction at a time until PC is target.
func (z *zeroTrio) land(t *testing.T, target uint32) {
	t.Helper()
	for i := 0; z.slow.PC != target; i++ {
		if i == 10 || z.run(t, 1, fmt.Sprintf("to %#x", target)) != thor.StatusOutOfBudget {
			t.Fatalf("never reached %#x: pc %#x, status %v", target, z.slow.PC, z.slow.Status())
		}
	}
}

// crossed fails the test unless the fast path crossed the line of addr
// (want) or stepped through it from its first word (!want) on each cpu.
func crossed(t *testing.T, addr uint32, want bool, cpus ...*thor.CPU) {
	t.Helper()
	for _, c := range cpus {
		if c.MirrorLive(addr) == want {
			t.Fatalf("line %#x: crossed %v, want %v", addr, !want, want)
		}
	}
}

// wantDetected fails the test unless the run stopped at mechanism m at pc.
func wantDetected(t *testing.T, st thor.Status, c *thor.CPU, m thor.EDM, pc uint32) {
	t.Helper()
	if st != thor.StatusDetected || c.Detection().Mechanism != m || c.Detection().PC != pc {
		t.Fatalf("status %v, detection %+v; want %v at %#x", st, c.Detection(), m, pc)
	}
}

func TestZeroLineCrossing(t *testing.T) {
	// A jump to a line start and into the middle of a line; the chunks
	// cross everything at once, cut lines, and leave no room to cross.
	for _, off := range []uint32{0, 4, 8, 12} {
		t.Run(fmt.Sprintf("jump+%d", off), func(t *testing.T) {
			for _, chunk := range []uint64{1 << 20, 97, 13, 5} {
				z := newZeroTrio(t, zeroConfig(zeroMem), jumpTo(0, sledAt+off))
				st := z.finish(t, chunk, fmt.Sprintf("chunks of %d", chunk))
				wantDetected(t, st, z.slow, thor.EDMMemRange, zeroMem)
				if chunk == 1<<20 {
					crossed(t, zeroMem-thor.CacheLineBytes, true, z.fast, z.burst)
				}
			}
		})
	}

	// Budgets of every length over two lines from a line start, each stop
	// resumed from with the same budget: at 11 and 23 the fourth fetch of
	// a line is the one the budget compare stops, at 12 and 24 it is not.
	t.Run("budget", func(t *testing.T) {
		for b := uint64(0); b <= 25; b++ {
			z := newZeroTrio(t, zeroConfig(zeroMem), jumpTo(0, sledAt))
			z.land(t, sledAt)
			z.run(t, b, fmt.Sprintf("budget %d", b))
			switch b {
			case 11, 23:
				crossed(t, sledAt+uint32(b/12)*thor.CacheLineBytes, false, z.fast, z.burst)
			case 12, 24:
				crossed(t, sledAt+uint32(b/12-1)*thor.CacheLineBytes, true, z.fast, z.burst)
			}
			for i := 0; i < 3; i++ {
				z.run(t, b, fmt.Sprintf("budget %d, resumed %d", b, i))
			}
			wantDetected(t, z.finish(t, 1<<20, fmt.Sprintf("budget %d, to the end", b)),
				z.slow, thor.EDMMemRange, zeroMem)
		}
	})

	// The watchdog expiring at every instruction boundary of the first
	// three lines: the jump lands 3 cycles after the kick, so the fetches
	// of a line start 3, 12, 13 and 14 cycles after it, plus 12 per line.
	t.Run("watchdog", func(t *testing.T) {
		for wl := uint64(1); wl <= 40; wl++ {
			for _, chunk := range []uint64{1 << 20, 13} {
				cfg := zeroConfig(zeroMem)
				cfg.WatchdogLimit = wl
				z := newZeroTrio(t, cfg, jumpTo(0, sledAt))
				st := z.finish(t, chunk, fmt.Sprintf("watchdog %d, chunks of %d", wl, chunk))
				if st != thor.StatusDetected || z.slow.Detection().Mechanism != thor.EDMWatchdog {
					t.Fatalf("watchdog %d: status %v, detection %+v", wl, st, z.slow.Detection())
				}
			}
		}
	})

	// A zero line shares its icache index with a line of code, and the
	// two take turns: each visit to either is a miss, and the zero line is
	// crossed every time. The code line's mirror was live when the
	// crossing evicted its icache line; it must not be found live again.
	t.Run("other-tag", func(t *testing.T) {
		z := newZeroTrio(t, zeroConfig(zeroMem), `
			kick
			ldi r1, 0x440
			ldi r3, 0x40
			jr r3
			.org 0x40
			addi r2, r2, 1
			kick
			jr r1
			.org 0x450
			jr r3
		`)
		z.land(t, 0x440)
		crossed(t, 0x40, false, z.fast, z.burst)
		z.run(t, 12, "one line")
		crossed(t, 0x440, true, z.fast, z.burst)
		for i := 0; i < 6; i++ {
			z.run(t, 50, fmt.Sprintf("taking turns, chunk %d", i))
		}
		if r2 := z.slow.Regs[2]; r2 < 10 {
			t.Fatalf("r2 = %d: the loop ran %d times", r2, r2)
		}
	})

	// The line is zero in memory but the icache holds it, from before the
	// host zeroed it, with its old code: a hit, not crossed — the stale
	// code runs. ScanWrite of the chain as read kills the mirror and leaves
	// the icache as it is.
	t.Run("same-tag", func(t *testing.T) {
		loop := uint32(sledAt + 0x40)
		z := newZeroTrio(t, zeroConfig(zeroMem), jumpTo(0, loop)+
			fmt.Sprintf("\t.org %d\n\taddi r2, r2, 1\n\taddi r2, r2, 1\n\tkick\n\tjr r0\n", loop))
		z.land(t, loop)
		z.land(t, 0)
		for _, c := range z.all() {
			if err := c.LoadMemory(loop, make([]byte, thor.CacheLineBytes)); err != nil {
				t.Fatal(err)
			}
			if err := c.ScanWrite(c.ScanRead()); err != nil {
				t.Fatal(err)
			}
		}
		z.land(t, loop)
		// Twelve cycles: the stale line (5), the jump back (4) and the
		// stale line's first three words again.
		z.run(t, 12, "the stale line")
		crossed(t, loop, false, z.fast, z.burst)
		if r2 := z.slow.Regs[2]; r2 != 6 {
			t.Fatalf("r2 = %d after the line's code ran once and the stale copy's twice, want 6", r2)
		}
		for i := 0; i < 6; i++ {
			z.run(t, 50, fmt.Sprintf("looping, chunk %d", i))
		}
	})

	// One non-zero word in the sled's second line, at each position.
	for k := uint32(0); k < thor.CacheWordsPerLine; k++ {
		t.Run(fmt.Sprintf("nonzero-word+%d", 4*k), func(t *testing.T) {
			line := uint32(sledAt + thor.CacheLineBytes)
			z := newZeroTrio(t, zeroConfig(zeroMem),
				jumpTo(0, sledAt)+fmt.Sprintf("\t.org %d\n\taddi r2, r2, 1\n", line+4*k))
			z.land(t, sledAt)
			z.run(t, 24, "two lines")
			crossed(t, sledAt, true, z.fast, z.burst)
			crossed(t, line, false, z.fast, z.burst)
			wantDetected(t, z.finish(t, 1<<20, "to the end"), z.slow, thor.EDMMemRange, zeroMem)
			if r2 := z.slow.Regs[2]; r2 != 1 {
				t.Fatalf("r2 = %d, want the one addi", r2)
			}
		})
	}

	// Memory ends inside a line: that line is not crossed, and its
	// memory-range EDM lands on the word past the end.
	for _, r := range []uint32{4, 8, 12} {
		t.Run(fmt.Sprintf("memsize+%d", r), func(t *testing.T) {
			for _, chunk := range []uint64{1 << 20, 13} {
				z := newZeroTrio(t, zeroConfig(zeroMem+r), jumpTo(0, sledAt))
				st := z.finish(t, chunk, fmt.Sprintf("chunks of %d", chunk))
				wantDetected(t, st, z.slow, thor.EDMMemRange, zeroMem+r)
				if chunk == 1<<20 {
					crossed(t, zeroMem-thor.CacheLineBytes, true, z.fast, z.burst)
				}
			}
		})
	}

	// Without caches every fetch pays the miss penalty: nothing to cross.
	t.Run("caches-disabled", func(t *testing.T) {
		cfg := zeroConfig(zeroMem)
		cfg.DisableCaches = true
		for _, chunk := range []uint64{1 << 20, 13} {
			z := newZeroTrio(t, cfg, jumpTo(0, sledAt))
			wantDetected(t, z.finish(t, chunk, fmt.Sprintf("chunks of %d", chunk)), z.slow, thor.EDMMemRange, zeroMem)
		}
	})

	// A TraceHook sees every instruction, so none is crossed: StepBurst
	// keeps the burst with a hook installed and must step the sled.
	t.Run("trace-hook", func(t *testing.T) {
		z := newZeroTrio(t, zeroConfig(zeroMem), jumpTo(0, sledAt))
		calls := map[*thor.CPU]uint64{}
		for _, c := range z.all() {
			c.TraceHook = func(cc *thor.CPU) { calls[cc]++ }
		}
		z.land(t, sledAt)
		z.run(t, 24, "two lines")
		crossed(t, sledAt, false, z.burst)
		crossed(t, sledAt+thor.CacheLineBytes, false, z.burst)
		wantDetected(t, z.finish(t, 1<<20, "to the end"), z.slow, thor.EDMMemRange, zeroMem)
		for _, c := range z.all() {
			if calls[c] != c.Instret() {
				t.Fatalf("hook saw %d of %d instructions", calls[c], c.Instret())
			}
		}
	})

	// A snapshot taken mid-sled — at a line start, after a fill, in the
	// middle of a line — restored into all three.
	t.Run("snapshot", func(t *testing.T) {
		for _, at := range []uint64{0, 5, 9, 10, 12, 17, 30} {
			z := newZeroTrio(t, zeroConfig(zeroMem), jumpTo(0, sledAt))
			z.land(t, sledAt)
			if z.slow.Run(at) == thor.StatusOutOfBudget {
				if err := z.slow.ClearOutOfBudget(); err != nil {
					t.Fatal(err)
				}
			}
			snap := z.slow.Snapshot()
			for _, c := range z.all() {
				if err := c.Restore(snap); err != nil {
					t.Fatal(err)
				}
			}
			diffCPUs(t, z.slow, z.fast, fmt.Sprintf("restored at %d", at))
			diffCPUs(t, z.slow, z.burst, fmt.Sprintf("restored at %d", at))
			wantDetected(t, z.finish(t, 29, fmt.Sprintf("restored at %d", at)), z.slow, thor.EDMMemRange, zeroMem)
		}
	})
}
