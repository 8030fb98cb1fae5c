//go:build race

package wire

// raceEnabled reports a race-detector build, whose sync.Pool drops items at
// random: an allocation test of pooled storage has nothing to measure there.
const raceEnabled = true
