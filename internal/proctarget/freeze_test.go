package proctarget

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
)

// fatalLine is the first line of the Go runtime's fatal path, a panic
// nobody recovered or a throw. The path begins with freezetheworld.
var fatalLine = regexp.MustCompile(`(?m)^(panic|fatal error): `)

// execVaries matches what differs in a crash's capture from one exec of
// a victim to the next: hexadecimal numbers, the addresses in stacks and
// the values found there (the kernel places the thread's stack anew at
// each exec, the main goroutine's stack lands at one of several places,
// diffRegs, and a stale slot holds what that exec's history left), and
// the number of the thread the goroutine ran on (m=), since an exec'd
// child has threads of its own. A forked child prints its zygote's.
var execVaries = regexp.MustCompile(`0x[0-9a-f]+|\bm=[0-9]+`)

// crashedGoroutine is a crash's capture up to the end of the first
// goroutine's traceback, the one that crashed. A throw then lists the
// process's other goroutines, whose states an exec'd child's other
// threads can change at any moment.
func crashedGoroutine(b []byte) []byte {
	sep := []byte("\n\ngoroutine ")
	if i := bytes.Index(b, sep); i >= 0 {
		if j := bytes.Index(b[i+len(sep):], sep); j >= 0 {
			b = b[:i+len(sep)+j]
		}
	}
	return execVaries.ReplaceAll(b, []byte("…"))
}

// endDiff says how two runs of one experiment ended differently, "" if
// they did not: the same class and exit status, and the same capture byte
// for byte, or, against an exec'd child, the crashed goroutine's
// traceback up to what varies from exec to exec.
func endDiff(a, b *core.Result, exec bool) string {
	x, y := a.Memory["stdout"], b.Memory["stdout"]
	if exec {
		x, y = crashedGoroutine(x), crashedGoroutine(y)
	}
	if a.Outcome.Status == b.Outcome.Status && a.Outcome.Mechanism == b.Outcome.Mechanism && bytes.Equal(x, y) {
		return ""
	}
	xl, yl := bytes.Split(x, []byte("\n")), bytes.Split(y, []byte("\n"))
	i := 0
	for i < len(xl) && i < len(yl) && bytes.Equal(xl[i], yl[i]) {
		i++
	}
	return fmt.Sprintf("%s (%s) against %s (%s); the captures part at line %d:\n%q\n%q\n%s",
		a.Outcome.Status, a.Outcome.Mechanism, b.Outcome.Status, b.Outcome.Mechanism, i+1,
		xl[min(i, len(xl)-1)], yl[min(i, len(yl)-1)], x)
}

// TestProcCrashSkipsTheFreezeSleep: seeded register faults on matmul,
// window 1:200. Each one that crashes a forked child is run again on a
// child forked from the same zygote that keeps the runtime's freeze sleep
// (Target.freezeSleep), and on an exec'd child: all three end with the
// same exit status and the same capture, traceback included: byte for
// byte between the two forked children, and against the exec'd one the
// crashed goroutine's traceback up to what varies from exec to exec
// (crashedGoroutine), in one of three tries. Every forked
// crash that took the runtime's fatal path skipped the sleep, and no
// other run did.
func TestProcCrashSkipsTheFreezeSleep(t *testing.T) {
	bin := victimBin(t, "matmul")
	vi, err := loadVictim(bin)
	if err != nil {
		t.Fatal(err)
	}
	if vi.freeze.usleep == 0 || vi.freeze.from >= vi.freeze.to {
		t.Fatalf("matmul's freeze sleep not found: %+v", vi.freeze)
	}
	forked, exec := newTarget(t), newTarget(t)
	exec.exec = true
	camp := procCampaign(bin, RegisterChainName, 2_000_000)
	camp.RandomWindow = [2]uint64{1, 200}
	rng := rand.New(rand.NewSource(1001))
	bits := RegisterMap().Length
	s0 := mFreezeSkips.Value()
	crashes, fatal := 0, 0
	for seq := 0; seq < 150; seq++ {
		fault := &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{rng.Intn(bits)}}
		budget := uint64(1 + rng.Intn(200))
		forked.freezeSleep = false
		ex := runExperiment(t, forked, camp, seq, fault, budget)
		if ex.Result.Outcome.Status != campaign.OutcomeCrash {
			continue
		}
		crashes++
		if fatalLine.Match(ex.Result.Memory["stdout"]) {
			fatal++
		}
		forked.freezeSleep = true
		if d := endDiff(&ex.Result, &runExperiment(t, forked, camp, seq, fault, budget).Result, false); d != "" {
			t.Fatalf("seq %d, against the sleep kept: %s", seq, d)
		}
		// An exec'd child runs the runtime's own threads, sysmon among
		// them, and on a loaded host sysmon can preempt the faulty
		// goroutine onto another way to its crash (a throw from newstack,
		// say). So the exec'd side has three tries to print what the
		// forked child did.
		var d string
		for try := 0; try < 3; try++ {
			if d = endDiff(&ex.Result, &runExperiment(t, exec, camp, seq, fault, budget).Result, true); d == "" {
				break
			}
		}
		if d != "" {
			t.Fatalf("seq %d, against three exec'd children: %s", seq, d)
		}
	}
	if skipped := mFreezeSkips.Value() - s0; fatal == 0 || skipped != uint64(fatal) {
		t.Fatalf("%d crashes, %d on the fatal path, %d freeze sleeps skipped; want one skip per fatal path, and some",
			crashes, fatal, skipped)
	}
	t.Logf("%d crashes, %d freeze sleeps skipped", crashes, fatal)
}

// TestProcFreezeSleepGuards: where the skip does not apply, a child ends
// as it would with the sleep kept, and nothing is skipped.
//   - recovered: recoverer takes a SIGSEGV on every run and recovers; the
//     int3 planted at the signal is never reached from freezetheworld.
//   - second-thread: recoverer had the runtime start a second thread, its
//     template thread, before its panic went unrecovered. One-thread, the
//     same crash without the thread, shows that it is the thread that
//     stops the skip.
//   - no-symbols: a victim without runtime.usleep or freezetheworld.
func TestProcFreezeSleepGuards(t *testing.T) {
	run := func(t *testing.T, bin, chain string, fault *faultmodel.Fault, budget uint64,
		want campaign.OutcomeStatus, skips uint64) {
		tgt := newTarget(t)
		camp := procCampaign(bin, chain, 2_000_000)
		camp.RandomWindow = [2]uint64{1, 10}
		for seq := 0; seq < 3; seq++ {
			s0 := mFreezeSkips.Value()
			tgt.freezeSleep = false
			ex := runExperiment(t, tgt, camp, seq, fault, budget)
			if got := mFreezeSkips.Value() - s0; got != skips || ex.Result.Outcome.Status != want {
				t.Fatalf("seq %d: %s (%s), %d freeze sleeps skipped; want %s, %d\n%s", seq, ex.Result.Outcome.Status,
					ex.Result.Outcome.Mechanism, got, want, skips, ex.Result.Memory["stdout"])
			}
			tgt.freezeSleep = true
			if d := endDiff(&ex.Result, &runExperiment(t, tgt, camp, seq, fault, budget).Result, false); d != "" {
				t.Fatalf("seq %d, against the sleep kept: %s", seq, d)
			}
		}
	}
	flags := func(t *testing.T, bin string, names ...string) *faultmodel.Fault {
		f := &faultmodel.Fault{Kind: faultmodel.Transient}
		for _, name := range names {
			f.Bits = append(f.Bits, memBit(t, bin, "g.main."+name, 63)) // value bit 0
		}
		return f
	}
	t.Run("recovered", func(t *testing.T) {
		bin := victimBin(t, "recoverer")
		run(t, bin, MemoryChainName, nil, 1, campaign.OutcomeMasked, 0)
	})
	t.Run("second-thread", func(t *testing.T) {
		bin := victimBin(t, "recoverer")
		run(t, bin, MemoryChainName, flags(t, bin, "gFatal", "gThread"), 1, campaign.OutcomeCrash, 0)
	})
	t.Run("one-thread", func(t *testing.T) {
		bin := victimBin(t, "recoverer")
		run(t, bin, MemoryChainName, flags(t, bin, "gFatal"), 1, campaign.OutcomeCrash, 1)
	})
	t.Run("no-symbols", func(t *testing.T) {
		bin := privateVictim(t, "matmul")
		vi, err := loadVictim(bin)
		if err != nil {
			t.Fatal(err)
		}
		vi.freeze = freezeSyms{}
		m := RegisterMap()
		loc, err := m.Find("special.rip")
		if err != nil {
			t.Fatal(err)
		}
		rip := &faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{loc.Offset}}
		run(t, bin, RegisterChainName, rip, 5, campaign.OutcomeCrash, 0)
	})
}
