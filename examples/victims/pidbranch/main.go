// pidbranch is a proctarget victim whose fault-free prefix does not
// repeat: the first instructions of its workload branch on each bit of
// the process id, so no two children of this binary execute the same
// instruction sequence. proctarget must notice that from its two
// recordings and reach every injection point by single-stepping.
//
// The output does not depend on the pid — every bit is counted on one
// side or the other — so masked-vs-sdc classification still has a
// stable reference.
package main

import (
	"fmt"
	"os"
)

// pidBits covers the largest pid Linux hands out (pid_max <= 2^22).
const pidBits = 22

var (
	gPid   = uint64(os.Getpid())
	gCount [2]uint64 // zero bits, one bits
)

//go:noinline
func workload() {
	for b := uint(0); b < pidBits; b++ {
		if gPid>>b&1 == 1 {
			gCount[1] += 3
		} else {
			gCount[0]++
		}
	}
}

func main() {
	workload()
	fmt.Printf("pidbranch bits=%d\n", gCount[0]+gCount[1]/3)
}
