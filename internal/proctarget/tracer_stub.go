//go:build !linux || !amd64

package proctarget

import (
	"fmt"

	"goofi/internal/core"
)

// Live-process injection needs Linux ptrace on amd64. On every other
// platform the tracer is a stub whose construction fails with a
// persistent (non-retryable) error; tests Probe first and t.Skip.

func lockThread()     {}
func unlockThread()   {}
func killProcess(int) {}

var errUnavailable = &procError{class: core.Persistent,
	err: fmt.Errorf("proctarget: ptrace is only supported on linux/amd64")}

type tracer struct {
	pid       int
	lastState *exitInfo
}

func startTraced(string) (*tracer, error) { return nil, errUnavailable }

func (t *tracer) PID() int                   { return 0 }
func (t *tracer) SetBreakpoint(uint64) error { return errUnavailable }
func (t *tracer) ContToBreakpoint() (bool, *exitInfo, error) {
	return false, nil, errUnavailable
}
func (t *tracer) toWorkload(*victimInfo) (bool, *exitInfo, error) {
	return false, nil, errUnavailable
}
func (t *tracer) Step(uint64) (uint64, *exitInfo, error) { return 0, nil, errUnavailable }
func (t *tracer) Regs() (regFile, error)                 { return regFile{}, errUnavailable }
func (t *tracer) FlipRegisterBits([][2]int) error        { return errUnavailable }
func (t *tracer) FlipMemoryBit(uint64, byte) error       { return errUnavailable }
func (t *tracer) Resume() (*exitInfo, error)             { return nil, errUnavailable }
func (t *tracer) Stdout() []byte                         { return nil }
func (t *tracer) kill()                                  {}
func (t *tracer) Shutdown()                              {}

type zygote struct {
	tr    *tracer
	start regFile
}

func newZygote(*victimInfo, *watchdog) (*zygote, *tracer, error) {
	return nil, nil, errUnavailable
}

func (z *zygote) stale(*victimInfo) bool { return true }
func (z *zygote) fork() (*tracer, error) { return nil, errUnavailable }
