//go:build race

package core

// raceEnabled reports that the race detector is on: sync.Pool then
// drops a share of what is put back, at random, so allocation counts
// that rely on a warm pool do not repeat.
const raceEnabled = true
