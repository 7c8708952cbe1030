// forker is a proctarget victim whose workload forks: the child exits at
// once with status 7, and the workload waits for it. proctarget traces
// the victim it started and nothing the victim starts, so the
// grandchild must run (and be reaped) untraced; a tracer that followed
// the fork would leave it stopped and this victim waiting for it.
//
// The fork is the raw system call: a Go runtime may run nothing but
// system calls in a child that has only the forking thread.
package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
)

var (
	gChild  int64
	gStatus int64 = -1
)

// The workload blocks in wait4. Locked to the main thread, the one
// proctarget traces, the main goroutine cannot come back from that call
// on another thread, where the next breakpoint would kill the process.
func init() { runtime.LockOSThread() }

//go:noinline
func workload() {
	pid, _, errno := syscall.RawSyscall(syscall.SYS_FORK, 0, 0, 0)
	if errno != 0 {
		return
	}
	if pid == 0 {
		syscall.RawSyscall(syscall.SYS_EXIT_GROUP, 7, 0, 0)
	}
	gChild = int64(pid)
	var ws syscall.WaitStatus
	if _, err := syscall.Wait4(int(pid), &ws, 0, nil); err == nil {
		gStatus = int64(ws.ExitStatus())
	}
}

func main() {
	workload()
	fmt.Printf("forker grandchild=%d status=%d\n", gChild, gStatus)
	if gStatus != 7 {
		os.Exit(1)
	}
}
