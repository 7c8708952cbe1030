// chatty is a proctarget victim for the output capture: it prints a
// line before its workload, then its own pid, gSize bytes of filler and
// its pid again, so no two children print the same and a byte that
// strays from one child's capture into another's shows. gSize is on the
// memory chain: a flipped high bit turns it into a flood far past the
// capture's cap.
//
// Unlike matmul's and loop's, its workload calls a function, so it opens
// with the Go stack check: a child that inherited a preemption request
// would detour through the scheduler at its first instructions.
package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

var (
	gSize int64 = 100 << 10
	gLine [4096]byte
)

// The main goroutine stays on the main thread, the one proctarget
// traces: were it moved, the breakpoint at main.workload would kill the
// process. Locked, it also cannot yield but through a thread that a
// forked child does not have, so a preemption request it inherited from
// its zygote would hang it.
func init() { runtime.LockOSThread() }

var banner = []byte("chatty begins\n")

//go:noinline
func workload() {
	for i := range gLine {
		gLine[i] = 'a' + byte(i%26)
	}
	endLine(gLine[:])
}

//go:noinline
func endLine(b []byte) { b[len(b)-1] = '\n' }

func main() {
	// Printed before the workload: a zygote writes it once, and every
	// child's capture must still begin with it. A raw write, so that the
	// runtime's system-call bookkeeping leaves no register at
	// main.workload that differs from run to run.
	syscall.RawSyscall(syscall.SYS_WRITE, 1, uintptr(unsafe.Pointer(&banner[0])), uintptr(len(banner)))
	workload()
	pid := os.Getpid()
	fmt.Printf("chatty pid=%d\n", pid)
	// Write errors are ignored: past the cap, a write fails and the
	// flood goes on to its end.
	for left := gSize; left > 0; left -= int64(len(gLine)) {
		os.Stdout.Write(gLine[:min(left, int64(len(gLine)))])
	}
	fmt.Printf("chatty end pid=%d\n", pid)
}
