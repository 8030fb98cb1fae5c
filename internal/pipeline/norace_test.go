//go:build !race

package pipeline

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
