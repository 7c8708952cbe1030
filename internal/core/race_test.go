//go:build race

package core

// raceEnabled reports a race-detector build. Its sync.Pool drops a random
// quarter of what is put back, so allocation counts vary from run to run,
// and its allocations are larger.
const raceEnabled = true
