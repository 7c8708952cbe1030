// sleeper is a proctarget victim that locks its main goroutine to its
// thread and, after its workload, sleeps: the goroutine parks, and being
// locked it cannot let its thread run anything else, so the runtime hands
// the P to another thread. A child forked from a zygote has no other
// thread; an exec'd one has.
package main

import (
	"fmt"
	"runtime"
	"time"
)

const n = 64

var (
	gA   [n]int64
	gSum int64
)

func init() { runtime.LockOSThread() }

//go:noinline
func workload() {
	for i := 0; i < n; i++ {
		gSum += gA[i] * int64(i+1)
	}
}

func main() {
	for i := range gA {
		gA[i] = int64(i*7%13) - 6
	}
	workload()
	time.Sleep(time.Millisecond)
	fmt.Printf("sleeper n=%d sum=%d\n", n, gSum)
}
