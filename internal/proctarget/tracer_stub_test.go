//go:build !linux || !amd64

package proctarget

// countingRefused: no platform but linux/amd64 has the counting
// breakpoint, nor the tracer its tests need.
func countingRefused() error { return errUnavailable }
