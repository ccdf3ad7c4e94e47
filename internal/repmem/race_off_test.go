//go:build !race

package repmem

// raceEnabled reports whether the race detector is on, under which
// allocation counts are not meaningful.
const raceEnabled = false
