//go:build race

package shard

// raceEnabled reports whether the race detector is on: it makes
// sync.Pool drop items at random, so allocation gates do not hold.
const raceEnabled = true
