//go:build race

package core

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// items at random, so allocation counts of pooled paths are asserted only
// without it.
const raceEnabled = true
