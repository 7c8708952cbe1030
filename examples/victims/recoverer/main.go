// recoverer is a proctarget victim whose workload dereferences a nil
// pointer and recovers: every run, the fault-free one included, takes a
// SIGSEGV that the Go runtime turns into a panic, and exits 0. Two
// globals on the memory chain change that when a fault sets them: gFatal
// leaves the panic unrecovered, a crash, and gThread first has the
// runtime start a second thread, so that the crash comes in a process
// with more than one thread.
package main

import (
	"fmt"
	"runtime"
)

var (
	gSum      int64
	gNil      *int64
	gFatal    int64
	gThread   int64
	recovered bool
)

//go:noinline
func workload() {
	if gThread != 0 {
		secondThread()
	}
	if gFatal == 0 {
		defer func() { recovered = recover() != nil }()
	}
	for i := int64(1); i <= 64; i++ {
		gSum += i * i
	}
	gSum += *gNil
}

// secondThread has the runtime start a thread beside the main one: the
// process's first LockOSThread starts the template thread, from which the
// runtime starts the threads of goroutines locked later. The main
// goroutine stays where it is, on the thread proctarget traces; unlike a
// goroutine locked and parked, this needs no thread the zygote had and a
// forked child has not.
func secondThread() {
	runtime.LockOSThread()
	runtime.UnlockOSThread()
}

func main() {
	workload()
	fmt.Printf("recoverer sum=%d recovered=%t\n", gSum, recovered)
}
