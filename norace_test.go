//go:build !race

package hiddenhhh

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
