//go:build !race

package sqldb

// raceEnabled reports a race-detector build (race_test.go).
const raceEnabled = false
