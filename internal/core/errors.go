package core

import (
	"context"
	"errors"
	"fmt"
)

// ErrReferenceChanged is a resumed run's reference run failing to
// reproduce, on a deterministic target, the reference row an earlier run of
// the campaign logged. The stored rows are relative to that row, so the
// run stops before it adds one.
var ErrReferenceChanged = errors.New("the reference run differs from the logged one: the target or the build changed under this campaign")

// Harness failures — faults of the test environment itself rather than
// the target under test — are first-class events for a campaign driver:
// TAP shifts get corrupted, boards wedge past waitForBreakpoint, host
// code panics. The runner classifies every experiment failure into one
// of three classes that determine the recovery strategy (retry, retry
// after power-cycle, or give up).

// ErrorClass is the recovery-relevant classification of an experiment
// failure.
type ErrorClass int

// Failure classes.
const (
	// Transient failures are expected to succeed on a plain retry
	// (corrupted scan read, spurious ExchangeDR error).
	Transient ErrorClass = iota
	// Persistent failures will not be fixed by retrying on the same
	// board state (configuration errors, NotImplementedError); the
	// runner retries them only after a board power-cycle, and without
	// backoff delay.
	Persistent
	// Wedged means the board stopped responding (watchdog deadline or
	// emulated-cycle cap exceeded, or a worker panic left the target in
	// an unknown state); the board must be power-cycled before reuse.
	Wedged
)

// String names the class for logs and reports.
func (c ErrorClass) String() string {
	switch c {
	case Transient:
		return "transient"
	case Persistent:
		return "persistent"
	case Wedged:
		return "wedged"
	}
	return fmt.Sprintf("ErrorClass(%d)", int(c))
}

// ExperimentError wraps an experiment failure with its classification
// and the attempt on which it occurred.
type ExperimentError struct {
	Class      ErrorClass
	Experiment string
	Attempt    int
	Err        error
}

func (e *ExperimentError) Error() string {
	return fmt.Sprintf("core: experiment %s attempt %d: %s harness failure: %v",
		e.Experiment, e.Attempt, e.Class, e.Err)
}

func (e *ExperimentError) Unwrap() error { return e.Err }

// Classifier lets an error carry its own class through wrapping layers;
// chaos-injected faults implement it so the runner's recovery matches
// the injected failure mode.
type Classifier interface {
	ErrorClass() ErrorClass
}

// ClassifyError maps an experiment failure to its recovery class:
// errors carrying a class keep it; NotImplementedError and context
// cancellation are persistent (retrying cannot help); everything else —
// scan-chain shift errors, panics converted to errors, device I/O — is
// treated as transient, the safe default for a flaky harness.
func ClassifyError(err error) ErrorClass {
	var ee *ExperimentError
	if errors.As(err, &ee) {
		return ee.Class
	}
	var cl Classifier
	if errors.As(err, &cl) {
		return cl.ErrorClass()
	}
	var ni *NotImplementedError
	if errors.As(err, &ni) {
		return Persistent
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Persistent
	}
	return Transient
}
