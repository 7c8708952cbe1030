// Package chaos is fault injection for the fault injector: it wraps a
// core.TargetSystem with a deterministic, seeded flaky-harness fault
// model — corrupted scan-chain captures, failed DR exchanges, simulated
// board hangs, transient and persistent failures — so the campaign
// driver's own fault tolerance (watchdogs, retry, quarantine) is
// testable without unreliable hardware. The model mirrors how real
// SCIFI harnesses misbehave: TAP shifts glitch, boards wedge past
// waitForBreakpoint, and a retried experiment on a re-initialised board
// succeeds.
//
// Faults are drawn from the wrapper's own seeded RNG, never from the
// experiment's, so a chaos-wrapped campaign draws the exact same
// injection plan as a healthy one — after retries, the logged records
// must be byte-identical (the chaos differential test enforces this).
//
// The package is test support: tests import it, no command does. The
// CLI's tests reach it through a target kind their test binary registers
// (cmd/goofi's scifi-chaos), the seam any new target system uses.
package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"goofi/internal/bitvec"
	"goofi/internal/core"
	"goofi/internal/scanchain"
	"goofi/internal/telemetry"
	"goofi/internal/thor"
)

// Config tunes the flaky-harness fault model. All probabilities are per
// eligible abstract-method call, in [0, 1].
type Config struct {
	// Seed drives all chaos randomness; same seed, same fault sequence.
	Seed int64
	// ScanReadCorruption is the probability that a ReadScanChain capture
	// is corrupted (one bit flipped in the shifted-out vector). Unless
	// Silent is set, the corruption is detected and reported as a
	// transient harness error, like a CRC-checked test card would.
	ScanReadCorruption float64
	// ScanWriteError is the probability that a WriteScanChain exchange
	// fails outright.
	ScanWriteError float64
	// HangProb is the probability that a WaitForBreakpoint or
	// WaitForTermination call stalls for HangDuration before making
	// progress — a wedged board. Hangs produce no error: they manifest
	// purely as lost wall-clock time, which only the runner's watchdog
	// can classify.
	HangProb float64
	// HangDuration is how long a hang stalls (default 100ms).
	HangDuration time.Duration
	// PersistentProb is the probability that a reported fault presents
	// as persistent rather than transient.
	PersistentProb float64
	// MaxFaults caps the total number of injected harness faults
	// (0 = unlimited). Tests bound it so a retried campaign provably
	// converges.
	MaxFaults int
	// Silent suppresses the error report for scan-read corruption: the
	// corrupted capture flows onward undetected. This is the self-test
	// mode — a silently corrupted campaign must FAIL the differential
	// comparison, proving the test can see real corruption.
	Silent bool
}

// HarnessError is a chaos-injected harness failure. It implements
// core.Classifier so the runner's recovery matches the injected class.
type HarnessError struct {
	Step  string
	Class core.ErrorClass
	Msg   string
}

func (e *HarnessError) Error() string {
	return fmt.Sprintf("chaos: %s: %s (%s)", e.Step, e.Msg, e.Class)
}

// ErrorClass implements core.Classifier.
func (e *HarnessError) ErrorClass() core.ErrorClass { return e.Class }

// controllerAccessor is the optional deep-hook interface: targets that
// expose their scan-chain controller (scifi.Target does) get faults
// injected inside the TAP driver via scanchain.ScanFaultHook, so the
// corruption propagates exactly like a glitched shift — including the
// ReadDR restore pass writing the corrupted value back to the device.
type controllerAccessor interface {
	Controller() *scanchain.Controller
}

// cpuAccessor is the optional deep-hook interface for hangs: targets
// exposing their THOR CPU get stalled via thor.CPU.RunHook, inside the
// emulator's run loop.
type cpuAccessor interface {
	CPU() *thor.CPU
}

// Target wraps an inner target system with the chaos fault model. It is
// used by exactly one board worker at a time, like any target.
type Target struct {
	inner  core.TargetSystem
	cfg    Config
	rng    *rand.Rand
	faults int
}

// Wrap builds a chaos-wrapped target.
func Wrap(inner core.TargetSystem, cfg Config) *Target {
	if cfg.HangDuration <= 0 {
		cfg.HangDuration = 100 * time.Millisecond
	}
	return &Target{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Faults reports how many harness faults have been injected so far.
func (t *Target) Faults() int { return t.faults }

// fire draws one fault decision, honouring the MaxFaults budget. kind
// is the pre-resolved per-kind counter bumped when the fault fires.
func (t *Target) fire(p float64, kind *telemetry.Counter) bool {
	if p <= 0 || (t.cfg.MaxFaults > 0 && t.faults >= t.cfg.MaxFaults) {
		return false
	}
	if t.rng.Float64() >= p {
		return false
	}
	t.faults++
	kind.Inc()
	return true
}

// class draws transient vs persistent for a fired fault.
func (t *Target) class() core.ErrorClass {
	if t.cfg.PersistentProb > 0 && t.rng.Float64() < t.cfg.PersistentProb {
		return core.Persistent
	}
	return core.Transient
}

// Name implements core.TargetSystem.
func (t *Target) Name() string { return t.inner.Name() }

// Close closes the inner target if it is an io.Closer, so a wrapped board
// still gives back what it holds when it retires.
func (t *Target) Close() error {
	if c, ok := t.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// InitTestCard passes through untouched: it is the recovery path (the
// board power-cycle before a retry), and a harness that cannot even be
// re-initialised is a quarantined board, not a retryable fault.
func (t *Target) InitTestCard(ex *core.Experiment) error { return t.inner.InitTestCard(ex) }

// LoadWorkload implements core.TargetSystem.
func (t *Target) LoadWorkload(ex *core.Experiment) error { return t.inner.LoadWorkload(ex) }

// WriteMemory implements core.TargetSystem.
func (t *Target) WriteMemory(ex *core.Experiment) error { return t.inner.WriteMemory(ex) }

// RunWorkload implements core.TargetSystem.
func (t *Target) RunWorkload(ex *core.Experiment) error { return t.inner.RunWorkload(ex) }

// InjectFault implements core.TargetSystem.
func (t *Target) InjectFault(ex *core.Experiment) error { return t.inner.InjectFault(ex) }

// WaitForBreakpoint may hang like a wedged board before delegating.
func (t *Target) WaitForBreakpoint(ex *core.Experiment) error {
	t.maybeHang()
	return t.inner.WaitForBreakpoint(ex)
}

// WaitForTermination may hang like a wedged board before delegating.
func (t *Target) WaitForTermination(ex *core.Experiment) error {
	t.maybeHang()
	return t.inner.WaitForTermination(ex)
}

// maybeHang stalls the harness for HangDuration when the hang fault
// fires — inside the emulator's run loop when the target exposes its
// CPU, at the call boundary otherwise. No error is returned either way:
// a wedge is pure lost time until the runner's watchdog classifies it.
func (t *Target) maybeHang() {
	if !t.fire(t.cfg.HangProb, mFaultsHang) {
		return
	}
	d := t.cfg.HangDuration
	if ca, ok := t.inner.(cpuAccessor); ok {
		if cpu := ca.CPU(); cpu != nil {
			// One-shot: the hook removes itself so only the next Run
			// entry stalls.
			cpu.RunHook = func(c *thor.CPU) {
				c.RunHook = nil
				time.Sleep(d)
			}
			return
		}
	}
	time.Sleep(d)
}

// ReadScanChain corrupts the capture when the scan-read fault fires:
// through the controller's fault hook when the target exposes one (the
// corrupted value then propagates device-side via the restore pass of
// the double scan), or by flipping a bit of ex.ScanVector at the call
// boundary. Unless Silent, the corruption is detected and reported.
func (t *Target) ReadScanChain(ex *core.Experiment) error {
	if !t.fire(t.cfg.ScanReadCorruption, mFaultsScanRead) {
		return t.inner.ReadScanChain(ex)
	}
	var herr error
	if !t.cfg.Silent {
		herr = &HarnessError{Step: "readScanChain", Class: t.class(),
			Msg: "scan capture corrupted (checksum mismatch)"}
	}
	if ca, ok := t.inner.(controllerAccessor); ok {
		if ctrl := ca.Controller(); ctrl != nil {
			fired := false
			ctrl.SetScanFaultHook(func(v *bitvec.Vector) error {
				if fired {
					return nil
				}
				fired = true
				if v.Len() > 0 {
					v.Flip(t.rng.Intn(v.Len()))
				}
				return herr
			})
			err := t.inner.ReadScanChain(ex)
			ctrl.SetScanFaultHook(nil)
			return err
		}
	}
	err := t.inner.ReadScanChain(ex)
	if err != nil {
		return err
	}
	if ex.ScanVector != nil && ex.ScanVector.Len() > 0 {
		ex.ScanVector.Flip(t.rng.Intn(ex.ScanVector.Len()))
	}
	return herr
}

// WriteScanChain fails the DR exchange when the scan-write fault fires —
// through the controller hook when available, so the error surfaces from
// inside the TAP driver.
func (t *Target) WriteScanChain(ex *core.Experiment) error {
	if !t.fire(t.cfg.ScanWriteError, mFaultsScanWrite) {
		return t.inner.WriteScanChain(ex)
	}
	herr := &HarnessError{Step: "writeScanChain", Class: t.class(),
		Msg: "DR exchange failed"}
	if ca, ok := t.inner.(controllerAccessor); ok {
		if ctrl := ca.Controller(); ctrl != nil {
			fired := false
			ctrl.SetScanFaultHook(func(v *bitvec.Vector) error {
				if fired {
					return nil
				}
				fired = true
				return herr
			})
			err := t.inner.WriteScanChain(ex)
			ctrl.SetScanFaultHook(nil)
			return err
		}
	}
	return herr
}

// ReadMemory implements core.TargetSystem.
func (t *Target) ReadMemory(ex *core.Experiment) error { return t.inner.ReadMemory(ex) }

// Forwarder pass-through: a chaos-wrapped target forwards checkpoints
// exactly like its inner target; when the inner target cannot forward,
// these are no-ops and every experiment runs cold.

// ArmForwardRecording implements core.Forwarder by delegation.
func (t *Target) ArmForwardRecording(plan *core.ForwardPlan) {
	if fw, ok := t.inner.(core.Forwarder); ok {
		fw.ArmForwardRecording(plan)
	}
}

// TakeForwardSet implements core.Forwarder by delegation.
func (t *Target) TakeForwardSet() *core.ForwardSet {
	if fw, ok := t.inner.(core.Forwarder); ok {
		return fw.TakeForwardSet()
	}
	return nil
}

// SetForwardSet implements core.Forwarder by delegation.
func (t *Target) SetForwardSet(set *core.ForwardSet) {
	if fw, ok := t.inner.(core.Forwarder); ok {
		fw.SetForwardSet(set)
	}
}

// Interface compliance.
var (
	_ core.TargetSystem = (*Target)(nil)
	_ core.Forwarder    = (*Target)(nil)
)
