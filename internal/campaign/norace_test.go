//go:build !race

package campaign

// raceEnabled reports a race-detector build (race_test.go).
const raceEnabled = false
