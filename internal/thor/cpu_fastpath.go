package thor

// Fast-path execution.
//
// The batched fast path exists to make the fault-free majority of every
// campaign cheap without perturbing a single architecturally visible
// bit. It must therefore be *provably* equivalent to the cycle-accurate
// Step/Run pair. The equivalence argument, per hoisted piece of
// bookkeeping:
//
//   - Breakpoint map lookup: RunFast guards the lookup with
//     len(c.breakpoints) != 0, re-read every iteration. When the set is
//     empty the lookup is trivially false and skipBPOnce (which only
//     matters when a breakpoint is armed at PC) is still cleared
//     unconditionally, so control flow is identical to Run.
//   - Fetch, parity check, and decode: stepFast consults a predecoded
//     mirror of the icache (idec). The mirror invariant is: a LIVE line
//     (gen == decGen, ok, tag matches) was built from an icache line
//     that was valid, tag-matching, fully in memory range, and parity
//     clean in EVERY word — and none of that can have changed since,
//     because every operation that can alter icache contents either
//     bumps decGen (Reset, Restore, ScanWrite, WriteWord32) or clears
//     the line's ok bit (a cachedRead line fill). A mirror hit is
//     therefore provably the clean-hit branch of the slow fetch, and
//     replicates that branch's exact side effects (icache hit counter,
//     read-pin sample) while skipping the re-proof: no validity/tag
//     load, no per-word parity popcount, no range check (index+tag
//     uniquely determine the line base, which was in range at build
//     time), no Decode. PC alignment IS re-checked each fetch (JR can
//     set a misaligned PC). Every non-hit case falls back to the slow
//     fetch() so EDM detections, miss penalties, and counters are
//     produced by the same code as Step.
//   - Everything else is NOT hoisted: the budget compare and watchdog
//     compare stay per-instruction (hoisting them would change where
//     StatusOutOfBudget / EDMWatchdog land), and execution itself goes
//     through execDecoded — the same function Step uses.
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

// stepFast executes one instruction, using the predecoded mirror when
// it is live and falling back to the cycle-accurate path otherwise.
// Architecturally indistinguishable from Step.
func (c *CPU) stepFast() Status {
	if c.status != StatusRunning {
		return c.status
	}
	if c.cfg.WatchdogLimit > 0 && c.cycle-c.lastKick > c.cfg.WatchdogLimit {
		// Delegate to Step so the watchdog detection is formatted by
		// exactly one piece of code.
		return c.Step()
	}
	pc := c.PC
	d := &c.idec[pc/CacheLineBytes%CacheLines]
	if d.gen == c.decGen && d.ok && d.tag == pc/(CacheLineBytes*CacheLines) && pc%4 == 0 {
		wi := pc / 4 % CacheWordsPerLine
		c.icache.hits++
		c.sampleReadPins(pc, d.ws[wi])
		return c.execDecoded(d.ins[wi])
	}
	return c.stepRefill()
}

// stepRefill is the non-mirror-hit tail of stepFast: try to (re)build
// the mirror line, else run the fully slow fetch.
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
	if !allClean {
		// Some other word in the line is corrupt: a later fetch of it
		// must still raise the parity EDM, so the mirror stays dead.
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

// RunFast is Run with batched execution: identical control flow
// (RunHook, breakpoint resume, per-instruction budget compare) with
// stepFast in place of Step. Byte-identical outcomes are pinned by
// TestFastPathDifferential*.
func (c *CPU) RunFast(cycleBudget uint64) Status {
	if c.du != nil {
		return c.Run(cycleBudget) // only the cycle-accurate path records
	}
	if c.RunHook != nil {
		c.RunHook(c)
	}
	if c.status == StatusBreakpoint {
		c.status = StatusRunning
		c.skipBPOnce = true
	}
	start := c.cycle
	for c.status == StatusRunning {
		if len(c.breakpoints) != 0 && c.breakpoints[c.PC] && !c.skipBPOnce {
			c.status = StatusBreakpoint
			return c.status
		}
		c.skipBPOnce = false
		if c.cycle-start >= cycleBudget {
			c.status = StatusOutOfBudget
			return c.status
		}
		c.stepFast()
	}
	return c.status
}

// StepBurst executes up to cycleBudget cycles with the fast path and
// WITHOUT breakpoint checks or an out-of-budget transition — exactly
// the semantics of trigger.RunUntil's inner loop (status check, then
// Step) so trigger waits can burst between firing checks. The caller
// owns the budget/trigger policy.
func (c *CPU) StepBurst(cycleBudget uint64) Status {
	start := c.cycle
	if c.du != nil {
		// Only the step path records. Its own loop, not a step function
		// picked once: the indirect call cost the burst 10% (275 against
		// 245 Mcycles/s on the PID kernel).
		for c.status == StatusRunning && c.cycle-start < cycleBudget {
			c.Step()
		}
		return c.status
	}
	for c.status == StatusRunning && c.cycle-start < cycleBudget {
		c.stepFast()
	}
	return c.status
}
