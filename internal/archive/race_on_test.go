//go:build race

package archive

// raceEnabled reports a -race build, whose instrumentation makes
// allocation counts mean nothing.
const raceEnabled = true
