//go:build race

package scan_test

// raceEnabled reports a -race build: sync.Pool then drops pooled items
// at random, so allocation counts of pooled paths mean nothing.
const raceEnabled = true
