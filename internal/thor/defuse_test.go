package thor_test

import (
	"math/rand"
	"reflect"
	"testing"

	"goofi/internal/thor"
)

// bitOf returns the first bit of a named scan field.
func bitOf(t *testing.T, name string) int {
	t.Helper()
	f, err := thor.ScanFieldByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return f.Offset
}

// TestDefUseRecordsExecution walks a six-instruction program and checks
// the table against what each instruction does to registers and caches.
func TestDefUseRecordsExecution(t *testing.T) {
	c, _ := load(t, thor.DefaultConfig(), `
		ldi r1, 6        ; 0: writes r1
		la r4, result    ; 1,2: lui+ori: writes r4, then reads and writes it
		st [r4], r1      ; 3: reads r4 and r1, dcache update (miss: no line)
		ld r2, [r4]      ; 4: reads r4, dcache miss -> fill -> hit, writes r2
		halt             ; 5
	result:
		.word 0
	`)
	c.RecordDefUse(0)
	if st := c.RunFast(1_000_000); st != thor.StatusHalted { // the fast path must hand over
		t.Fatalf("status %v", st)
	}
	d := c.TakeDefUse()
	if d == nil || c.TakeDefUse() != nil {
		t.Fatal("TakeDefUse must return the table once")
	}
	if got := uint64(len(d.Boundaries)); got != c.Instret() {
		t.Fatalf("%d boundaries for %d retired instructions", got, c.Instret())
	}
	if d.Boundaries[0] != 0 {
		t.Errorf("first boundary at cycle %d", d.Boundaries[0])
	}
	for i := 1; i < len(d.Boundaries); i++ {
		if d.Boundaries[i] <= d.Boundaries[i-1] {
			t.Fatalf("boundaries not ascending: %v", d.Boundaries)
		}
	}
	type q struct {
		field string
		idx   int
		want  thor.Access
	}
	last := len(d.Boundaries) - 1
	for _, tc := range []q{
		{"cpu.r1", 0, thor.AccessWrite}, // ldi overwrites it
		{"cpu.r1", 1, thor.AccessRead},  // st reads it
		{"cpu.r1", 4, thor.AccessNone},  // never touched after the store
		{"cpu.r4", 1, thor.AccessWrite}, // lui
		{"cpu.r4", 2, thor.AccessRead},  // ori reads before it writes
		{"cpu.r4", last, thor.AccessNone},
		{"cpu.r2", 0, thor.AccessWrite}, // only the load's write-back
		{"cpu.r2", last, thor.AccessNone},
		{"cpu.r9", 0, thor.AccessNone}, // unused register
		{"cpu.pc", 0, thor.AccessRead}, // untracked: always read
		{"cpu.ccr", last, thor.AccessRead},
		{"cpu.cycle", 0, thor.AccessRead}, // read-only counter: untracked
		// The first fetch misses: valid and tag are read by the lookup,
		// the words only written by the fill, then word 0 read back.
		{"icache.line0.valid", 0, thor.AccessRead},
		{"icache.line0.word0", 0, thor.AccessWrite},
		{"icache.line0.word1", 0, thor.AccessWrite},
		{"icache.line0.word1", 1, thor.AccessRead},
		{"icache.line0.parity3", 0, thor.AccessWrite},
		{"icache.line5.tag", 0, thor.AccessNone},
		// result sits at byte 24: dcache line 1, word 2. The store finds
		// no line (reads valid+tag only); the load fills it.
		{"dcache.line1.valid", 0, thor.AccessRead},
		{"dcache.line1.word2", 0, thor.AccessWrite},
		{"dcache.line1.word0", 0, thor.AccessWrite},
		{"dcache.line1.word0", last, thor.AccessNone},
		{"dcache.line1.parity2", last, thor.AccessNone},
		{"dcache.line0.valid", 0, thor.AccessNone},
	} {
		if got := d.Next(bitOf(t, tc.field), tc.idx); got != tc.want {
			t.Errorf("%s from boundary %d: %v, want %v", tc.field, tc.idx, got, tc.want)
		}
	}
	// Every bit of a field answers alike; bits outside the chain are
	// "read".
	f, _ := thor.ScanFieldByName("cpu.r1")
	if d.Next(f.Offset, 0) != d.Next(f.End()-1, 0) {
		t.Error("bits of one field disagree")
	}
	if d.Next(-1, 0) != thor.AccessRead || d.Next(thor.ScanLen(), 0) != thor.AccessRead {
		t.Error("out-of-range bits must read as AccessRead")
	}
}

// TestDefUseStoreHitOverwritesWord: a store to a cached word is a write
// of the word and its parity, read of valid and tag.
func TestDefUseStoreHitOverwritesWord(t *testing.T) {
	c, _ := load(t, thor.DefaultConfig(), `
		la r4, cell
		ld r2, [r4]      ; 2: brings the line in
		st [r4], r2      ; 3: update hit
		halt
	.org 0x100
	cell:
		.word 7
	`)
	c.RecordDefUse(0)
	if st := c.Run(1_000_000); st != thor.StatusHalted {
		t.Fatalf("status %v", st)
	}
	d := c.TakeDefUse()
	// 0x100: line 0 (0x100/16 % 16), word 0.
	for field, want := range map[string]thor.Access{
		"dcache.line0.word0":   thor.AccessWrite,
		"dcache.line0.parity0": thor.AccessWrite,
		"dcache.line0.valid":   thor.AccessRead,
		"dcache.line0.tag":     thor.AccessRead,
		"dcache.line0.word1":   thor.AccessNone,
	} {
		if got := d.Next(bitOf(t, field), 3); got != want {
			t.Errorf("%s from the store's boundary: %v, want %v", field, got, want)
		}
	}
}

// TestDefUseDetectedInstructionWritesNothing: an instruction stopped by
// an EDM never writes its destination, so the table must not say it did.
func TestDefUseDetectedInstructionWritesNothing(t *testing.T) {
	c, _ := load(t, thor.DefaultConfig(), `
		ldi r1, 0
		div r2, r3, r1
		halt
	`)
	c.RecordDefUse(0)
	if st := c.Run(1_000_000); st != thor.StatusDetected {
		t.Fatalf("status %v", st)
	}
	d := c.TakeDefUse()
	if len(d.Boundaries) != 2 {
		t.Fatalf("boundaries %v", d.Boundaries)
	}
	if got := d.Next(bitOf(t, "cpu.r2"), 1); got != thor.AccessNone {
		t.Errorf("r2 after a trapped DIV: %v, want none", got)
	}
	if got := d.Next(bitOf(t, "cpu.r3"), 1); got != thor.AccessRead {
		t.Errorf("r3 (dividend): %v, want read", got)
	}
}

// TestDefUseBoundaryLookup maps cycle and instret thresholds to
// boundaries, including the ends.
func TestDefUseBoundaryLookup(t *testing.T) {
	c, _ := load(t, thor.DefaultConfig(), `
		ldi r1, 1
		mul r2, r1, r1
		mul r2, r2, r1
		halt
	`)
	c.RecordDefUse(0)
	c.Run(1_000_000)
	d := c.TakeDefUse()
	end := c.Cycle()
	for at := uint64(0); at <= end+2; at++ {
		idx, ok := d.Boundary(at, false)
		wantIdx := len(d.Boundaries)
		for i, b := range d.Boundaries {
			if b >= at {
				wantIdx = i
				break
			}
		}
		if idx != wantIdx || ok != (wantIdx < len(d.Boundaries)) {
			t.Errorf("cycle %d: boundary %d ok=%v, want %d", at, idx, ok, wantIdx)
		}
	}
	for n := uint64(0); n < 6; n++ {
		idx, ok := d.Boundary(n, true)
		if want := n < 4; ok != want || (ok && idx != int(n)) {
			t.Errorf("instret %d: boundary %d ok=%v", n, idx, ok)
		}
	}
}

// TestDefUseCapStopsRecording: past the size cap the table keeps what it
// has, refuses later boundaries, and no longer claims "never touched
// again".
func TestDefUseCapStopsRecording(t *testing.T) {
	src := `
		ldi r1, 100
	loop:
		subi r1, r1, 1
		cmpi r1, 0
		bne loop
		ldi r7, 1
		halt
	`
	full, _ := load(t, thor.DefaultConfig(), src)
	full.RecordDefUse(0)
	full.Run(1_000_000)
	whole := full.TakeDefUse()

	capped, _ := load(t, thor.DefaultConfig(), src)
	capped.RecordDefUse(whole.Bytes() / 2)
	capped.Run(1_000_000)
	part := capped.TakeDefUse()
	if part.Bytes() > whole.Bytes()/2 {
		t.Fatalf("capped table holds %d bytes, cap %d", part.Bytes(), whole.Bytes()/2)
	}
	n := len(part.Boundaries)
	if n == 0 || n >= len(whole.Boundaries) {
		t.Fatalf("capped table has %d of %d boundaries", n, len(whole.Boundaries))
	}
	if !reflect.DeepEqual(part.Boundaries, whole.Boundaries[:n]) {
		t.Error("capped boundaries are not a prefix of the full run's")
	}
	if _, ok := part.Boundary(whole.Boundaries[n], false); ok {
		t.Error("a boundary past the recording horizon was found")
	}
	// r9 is never touched: provable on the full table, unknown on the
	// capped one. r7 is written after the horizon: the capped table must
	// not call it untouched either.
	for _, reg := range []string{"cpu.r9", "cpu.r7"} {
		if got := part.Next(bitOf(t, reg), 0); got != thor.AccessRead {
			t.Errorf("%s on the capped table: %v, want read (unknown)", reg, got)
		}
	}
	if got := whole.Next(bitOf(t, "cpu.r9"), 0); got != thor.AccessNone {
		t.Errorf("r9 on the full table: %v", got)
	}
	if got := whole.Next(bitOf(t, "cpu.r7"), 0); got != thor.AccessWrite {
		t.Errorf("r7 on the full table: %v", got)
	}
	// Inside the horizon both agree.
	if a, b := part.Next(bitOf(t, "cpu.r1"), 1), whole.Next(bitOf(t, "cpu.r1"), 1); a != b {
		t.Errorf("r1 inside the horizon: capped %v, full %v", a, b)
	}
}

// TestDefUseStepBurstHandsOver: the burst loop of trigger waits, like
// RunFast, executes through Step while a recorder is armed.
func TestDefUseStepBurstHandsOver(t *testing.T) {
	c, _ := load(t, thor.DefaultConfig(), `
	loop:
		addi r1, r1, 1
		kick
		bra loop
	`)
	c.RecordDefUse(0)
	c.StepBurst(300)
	if d := c.TakeDefUse(); uint64(len(d.Boundaries)) != c.Instret() || c.Instret() == 0 {
		t.Errorf("%d boundaries for %d instructions retired in a burst", len(d.Boundaries), c.Instret())
	}
}

// TestDefUseRecordingLeavesExecutionAlone: an armed run ends in exactly
// the state an unarmed fast-path run does.
func TestDefUseRecordingLeavesExecutionAlone(t *testing.T) {
	img := randProgram(rand.New(rand.NewSource(41)), 300)
	plain, armed := newPair(t, thor.DefaultConfig(), img)
	armed.RecordDefUse(0)
	driveLockstep(t, armed, plain, 97, 20_000)
}

// TestDefUseTrappedAccessTouchesNoCache: an access the EDMs stop —
// misaligned or outside memory, data or fetch — never reaches a cache,
// so the table must leave the line it would have mapped to untouched.
func TestDefUseTrappedAccessTouchesNoCache(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		line      string // the cache line the trapped address maps to
	}{
		{"misaligned load", "ldi r4, 0x132\n ld r2, [r4]\n halt", "dcache.line3"},
		{"misaligned store", "ldi r4, 0x132\n st [r4], r2\n halt", "dcache.line3"},
		{"load outside memory", "lui r4, 1\n ld r2, [r4+0x50]\n halt", "dcache.line5"},
		{"store outside memory", "lui r4, 1\n st [r4+0x50], r2\n halt", "dcache.line5"},
		{"misaligned fetch", "ldi r4, 0x72\n jr r4\n halt", "icache.line7"},
		{"fetch outside memory", "lui r4, 1\n ori r4, r4, 0x70\n jr r4\n halt", "icache.line7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := load(t, thor.DefaultConfig(), tc.src)
			c.RecordDefUse(0)
			if st := c.Run(1_000_000); st != thor.StatusDetected {
				t.Fatalf("status %v, want a detection", st)
			}
			d := c.TakeDefUse()
			for _, f := range []string{".valid", ".tag", ".word0", ".word2", ".parity0", ".parity2"} {
				if got := d.Next(bitOf(t, tc.line+f), 0); got != thor.AccessNone {
					t.Errorf("%s%s: %v, want none", tc.line, f, got)
				}
			}
		})
	}
}

// TestDefUseCachesDisabled: with the caches bypassed, reads go to the
// bus; only the write-through update still looks at the data cache.
func TestDefUseCachesDisabled(t *testing.T) {
	cfg := thor.DefaultConfig()
	cfg.DisableCaches = true
	c, _ := load(t, cfg, `
		ldi r4, 0x130
		ld r2, [r4]
		st [r4], r2
		halt
	`)
	c.RecordDefUse(0)
	if st := c.Run(1_000_000); st != thor.StatusHalted {
		t.Fatalf("status %v", st)
	}
	d := c.TakeDefUse()
	for field, want := range map[string]thor.Access{
		"icache.line0.valid": thor.AccessNone,
		"icache.line0.word0": thor.AccessNone,
		"dcache.line3.valid": thor.AccessRead, // the store's update
		"dcache.line3.tag":   thor.AccessRead,
		"dcache.line3.word0": thor.AccessNone, // never filled, never hit
	} {
		if got := d.Next(bitOf(t, field), 0); got != want {
			t.Errorf("%s: %v, want %v", field, got, want)
		}
	}
	if got := d.Next(bitOf(t, "dcache.line3.valid"), 3); got != thor.AccessNone {
		t.Errorf("dcache.line3.valid after the store: %v, want none", got)
	}
}
