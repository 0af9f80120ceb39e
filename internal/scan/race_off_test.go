//go:build !race

package scan_test

const raceEnabled = false
