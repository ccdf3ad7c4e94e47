//go:build race

package sift

// raceEnabled reports whether the race detector is on. It changes what a
// put allocates: sync.Pool drops items at random under it.
const raceEnabled = true
