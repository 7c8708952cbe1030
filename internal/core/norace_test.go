//go:build !race

package core

// raceEnabled reports a race-detector build (race_test.go).
const raceEnabled = false
