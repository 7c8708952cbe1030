// runtimeenv is a proctarget victim whose output shows the environment its
// Go runtime was started in: GOMAXPROCS as the runtime took it, and the
// GODEBUG and GOTRACEBACK it was given, beside a checksum its workload
// computes. A reference output captured in another environment than the
// traced runs would differ from every one of them, and each fault-free
// run would read as silent data corruption.
package main

import (
	"fmt"
	"os"
	"runtime"
)

const n = 64

var (
	gA   [n]int64
	gSum int64
)

//go:noinline
func workload() {
	for i := 0; i < n; i++ {
		gSum += gA[i] * int64(i+1)
	}
}

func main() {
	for i := range gA {
		gA[i] = int64(i*5%11) - 5
	}
	workload()
	fmt.Printf("runtimeenv sum=%d gomaxprocs=%d godebug=%q gotraceback=%q\n",
		gSum, runtime.GOMAXPROCS(0), os.Getenv("GODEBUG"), os.Getenv("GOTRACEBACK"))
}
