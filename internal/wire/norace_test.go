//go:build !race

package wire

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
