//go:build race

package campaign

// raceEnabled reports a race-detector build. Its sync.Pool drops a random
// quarter of what is put back, so allocation counts vary from run to run.
const raceEnabled = true
