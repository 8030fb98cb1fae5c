//go:build race

package hiddenhhh

// raceEnabled reports a race-detector build, whose sync.Pool drops items at
// random: an allocation budget that counts on pooled storage cannot hold.
const raceEnabled = true
