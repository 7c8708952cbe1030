package thor

// Fast-path execution.
//
// The batched fast path exists to make the fault-free majority of every
// campaign cheap without perturbing a single architecturally visible
// bit. It must therefore be *provably* equivalent to the cycle-accurate
// Step/Run pair. The equivalence argument, per hoisted piece of
// bookkeeping:
//
//   - Hooks: RunFast reads c.TraceHook and the def-use recorder once,
//     after the RunHook has returned — the last caller-supplied code
//     that runs before the loop. With either installed it hands over to
//     Run's own loop.
//   - Fetch, parity check, and decode: burst consults a predecoded
//     mirror of the icache (idec). The mirror invariant is: a LIVE line
//     (gen == decGen, ok, tag matches) was built from an icache line
//     that was valid, tag-matching, fully in memory range, and parity
//     clean in EVERY word — and none of that can have changed since,
//     because every operation that can alter icache contents either
//     bumps decGen (Reset, Restore, ScanWrite, WriteWord32) or clears
//     the line's ok bit (a cachedRead line fill, a crossed zero line).
//     fetchPredecoded builds a line only if all of it lies in memory: one
//     that runs past the end, when MemSize is not a multiple of the line
//     size, stays dead, so its words past the end raise the memory-range
//     EDM as the slow fetch does. A mirror hit is
//     therefore provably the clean-hit branch of the slow fetch, and
//     replicates that branch's exact side effects (icache hit counter,
//     read-pin sample) while skipping the re-proof: no validity/tag
//     load, no per-word parity popcount, no range check (index+tag
//     uniquely determine the line base, which was in range at build
//     time), no Decode. PC alignment IS re-checked each fetch (JR can
//     set a misaligned PC). Every non-hit case falls back to the slow
//     fetch() so EDM detections, miss penalties, and counters are
//     produced by the same code as Step.
//   - The merged loop: the mirror hit is written into burst's loop, not
//     reached through a step function. What that hoists is one call per
//     instruction and two loads of c.status — the step function's entry
//     test, which repeated the loop condition with nothing in between
//     that writes status, and the reload for a status it returned and
//     nobody read. What it does not: the order per instruction is still
//     status, budget, watchdog, alignment and mirror, then execDecoded or
//     stepRefill. RunFast turns "still running when the budget ran out"
//     into StatusOutOfBudget after the burst, on the cycle Run's compare
//     would have caught it, because the burst's loop condition is that
//     compare.
//   - Zero lines: a run a fault derailed into zeroed memory executes NOPs
//     (word 0 decodes as one) to the memory-range EDM, and burst crosses
//     such a line in one step (crossZeroLines) when PC is at its start,
//     all sixteen bytes lie in memory and are zero, the icache misses,
//     caches are on and no TraceHook would see the four instructions.
//     Four Steps there make one miss and a fill of four zeros (even
//     parity), four hits, 8 + 4×1 cycles, four retired NOPs and PC + 16,
//     and leave the read pins at the last word with data 0 — the crossing
//     makes exactly these. A NOP touches nothing else, and the budget and
//     watchdog compares grow with the cycle, so of the four fetches' the
//     fourth's (11 cycles in) is the strictest: if it cannot fire, none
//     can, and the line is crossed; if it can, stepRefill takes the line
//     and the compares stay per instruction. The mirror line is left
//     dead, as the fill in cachedRead leaves it — not rebuilt as the fast
//     path's own second fetch would have done — which the invariant allows:
//     a dead line only sends the next fetch of it to the slow path.
//   - Everything else is NOT hoisted: outside a crossed zero line the
//     budget compare and watchdog compare stay per-instruction (hoisting
//     them would change where StatusOutOfBudget / EDMWatchdog land),
//     every EDM is raised by the code Step raises it with, and execution
//     itself goes through execDecoded — the same function Step uses.
//
// LoadMemory and dataWrite intentionally do NOT invalidate the mirror:
// they do not update the icache either, so the mirror stays exactly as
// (in)coherent as the icache itself — which is the slow path's
// behaviour.

// decLine is the predecoded mirror of one icache line: the raw words
// (for pin sampling) and their decoded forms.
type decLine struct {
	gen uint64
	tag uint32
	ok  bool
	ws  [CacheWordsPerLine]uint32
	ins [CacheWordsPerLine]Instr
}

// stepRefill is one instruction whose mirror line is not live: try to
// (re)build the line, else run the fully slow fetch.
func (c *CPU) stepRefill() Status {
	in, ok := c.fetchPredecoded()
	if !ok {
		w, ok := c.fetch()
		if !ok {
			return c.status
		}
		in = Decode(w)
	}
	return c.execDecoded(in)
}

// fetchPredecoded handles a fetch whose mirror line is not live. If the
// fetch is a clean icache hit it replicates the slow path's side
// effects (hit counter, pin sample) and — when every word in the line
// is parity clean, establishing the mirror invariant — rebuilds the
// mirror. Any case the slow path would treat differently (miss, parity
// error on the fetched word, misalignment, out of range, caches
// disabled) returns ok=false with NO side effects so the caller's
// fetch() fallback produces byte-identical EDMs and counters.
func (c *CPU) fetchPredecoded() (Instr, bool) {
	if c.cfg.DisableCaches {
		return Instr{}, false
	}
	pc := c.PC
	if !c.wordInMemory(pc) {
		return Instr{}, false
	}
	li, wi, tag := c.icache.index(pc)
	ln := &c.icache.lines[li]
	if !ln.valid || ln.tag != tag {
		return Instr{}, false // miss: slow path charges the fill
	}
	allClean := true
	for i, w := range ln.data {
		if ln.parity[i] != parityOf(w) {
			allClean = false
		}
	}
	if ln.parity[wi] != parityOf(ln.data[wi]) {
		return Instr{}, false // slow path raises the parity EDM
	}
	c.icache.hits++
	c.sampleReadPins(pc, ln.data[wi])
	if !allClean || uint64(pc|(CacheLineBytes-1)) >= uint64(len(c.mem)) {
		// Some other word in the line is corrupt, or past the end of
		// memory: a later fetch of it must still raise the parity or
		// memory-range EDM, so the mirror stays dead.
		return Decode(ln.data[wi]), true
	}
	d := &c.idec[li]
	d.ws = ln.data
	for i, w := range ln.data {
		d.ins[i] = Decode(w)
	}
	d.gen, d.tag, d.ok = c.decGen, tag, true
	return d.ins[wi], true
}

// burst is the one run loop of the fast path: instructions until the CPU
// stops or cycleBudget cycles have gone by, a live mirror line executed
// right here, all-zero lines crossed by crossZeroLines and anything else
// through stepRefill. It makes no out-of-budget transition: that is the
// caller's. Architecturally indistinguishable from a loop of Step.
func (c *CPU) burst(cycleBudget uint64) {
	start := c.cycle
	for c.status == StatusRunning && c.cycle-start < cycleBudget {
		if c.cfg.WatchdogLimit > 0 && c.cycle-c.lastKick > c.cfg.WatchdogLimit {
			c.Step() // the one place the watchdog detection is formatted
			continue
		}
		pc := c.PC
		d := &c.idec[pc/CacheLineBytes%CacheLines]
		if d.gen == c.decGen && d.ok && d.tag == pc/(CacheLineBytes*CacheLines) && pc%4 == 0 {
			wi := pc / 4 % CacheWordsPerLine
			c.icache.hits++
			c.sampleReadPins(pc, d.ws[wi])
			c.execDecoded(d.ins[wi])
		} else if pc%CacheLineBytes != 0 || !c.crossZeroLines(start, cycleBudget) {
			c.stepRefill()
		}
	}
}

// crossZeroLines retires, line after line from PC on, the four NOPs of an
// all-zero icache line that a loop of Step would fetch through a miss,
// each line as one step with the side effects of the four, and reports
// whether it crossed any. It stops in front of the first line that is not
// such a line or on which the budget or watchdog compare of burst could
// fire; that line is stepRefill's. PC must be at a line start.
func (c *CPU) crossZeroLines(start, cycleBudget uint64) bool {
	if c.cfg.DisableCaches || c.TraceHook != nil {
		return false
	}
	nop := opTable[OpNOP].cycles
	last := CacheMissPenalty + (CacheWordsPerLine-1)*nop // the fourth fetch's cycle offset
	wl := c.cfg.WatchdogLimit
	crossed := false
	for {
		pc := c.PC
		if uint64(pc)+CacheLineBytes > uint64(len(c.mem)) ||
			[CacheLineBytes]byte(c.mem[pc:pc+CacheLineBytes]) != [CacheLineBytes]byte{} {
			return crossed
		}
		// burst's two compares as the fourth fetch would make them, last
		// cycles on; the watchdog's is written so that nothing wraps.
		if c.cycle+last-start >= cycleBudget ||
			wl > 0 && (c.cycle-c.lastKick > wl || wl-(c.cycle-c.lastKick) < last) {
			return crossed
		}
		li, _, tag := c.icache.index(pc)
		ln := &c.icache.lines[li]
		if ln.valid && ln.tag == tag {
			return crossed // a hit: the line holds what it holds, not memory's zeros
		}
		c.icache.misses++
		// What fill leaves for four zero words, without its four parity
		// computations (zero has even parity).
		*ln = cacheLine{tag: tag, valid: true}
		c.idec[li].ok = false
		c.icache.hits += CacheWordsPerLine
		c.sampleReadPins(pc+CacheLineBytes-4, 0)
		c.cycle += last + nop
		c.instret += CacheWordsPerLine
		c.PC = pc + CacheLineBytes
		crossed = true
	}
}

// RunFast is Run with batched execution: the same RunHook and
// per-instruction budget compare around one burst. A run that a
// TraceHook watches or that the def-use recorder logs is Run's: only the
// cycle-accurate loop records. Byte-identical outcomes are pinned by
// TestFastPathDifferential*.
func (c *CPU) RunFast(cycleBudget uint64) Status {
	if c.RunHook != nil {
		c.RunHook(c)
	}
	if c.du != nil || c.TraceHook != nil {
		return c.run(cycleBudget)
	}
	c.burst(cycleBudget)
	if c.status == StatusRunning {
		c.status = StatusOutOfBudget
	}
	return c.status
}

// StepBurst executes up to cycleBudget cycles with the fast path and
// WITHOUT an out-of-budget transition — exactly
// the semantics of trigger.RunUntil's inner loop (status check, then
// Step) so trigger waits can burst between firing checks. The caller
// owns the budget/trigger policy.
func (c *CPU) StepBurst(cycleBudget uint64) Status {
	if c.du != nil {
		// Only the step path records. Its own loop, not a step function
		// picked once: the indirect call cost the burst 10% (275 against
		// 245 Mcycles/s on the PID kernel).
		start := c.cycle
		for c.status == StatusRunning && c.cycle-start < cycleBudget {
			c.Step()
		}
		return c.status
	}
	c.burst(cycleBudget)
	return c.status
}
