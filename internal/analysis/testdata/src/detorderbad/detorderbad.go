// Package detorderbad exercises the detorder analyzer's order-leak
// cases: map iteration whose nondeterministic order escapes the loop.
package detorderbad

import "fmt"

// PrintAll prints entries in map order.
func PrintAll(m map[string]int) {
	for k, v := range m { // want "statement with side effects inside map iteration"
		fmt.Println(k, v)
	}
}

// Keys collects keys without sorting them.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m { // want "appends map elements without sorting"
		out = append(out, k)
	}
	return out
}

// Max tracks a maximum with a nondeterministic tie-break.
func Max(m map[string]int) string {
	best, bestN := "", -1
	for k, n := range m { // want "assigns iteration-dependent value to outer variable"
		if n > bestN {
			best, bestN = k, n
		}
	}
	return best
}

// TakeOne exits after an arbitrary element.
func TakeOne(m map[string]int) {
	for range m { // want "loop exit depends on which element comes first"
		break
	}
}

// Any returns whichever key the runtime yields first.
func Any(m map[string]int) string {
	for k := range m { // want "returns a value derived from the iteration element"
		return k
	}
	return ""
}

// The cases below store or pass the iteration element somewhere that
// outlives the loop. detflow has no heap-store or call-argument sinks,
// so detorder is the analyzer that catches them.

type set struct{ list []string }

// Collect appends keys to a receiver field.
func (s *set) Collect(m map[string]int) {
	for k := range m { // want "assigns to outer state; last iteration wins nondeterministically"
		s.list = append(s.list, k)
	}
}

var registry []string

// Register appends keys to a package-level slice.
func Register(m map[string]int) {
	for k := range m { // want "appends map elements without sorting"
		registry = append(registry, k)
	}
}

// KeysInto appends keys through a pointer parameter.
func KeysInto(m map[string]int, out *[]string) {
	for k := range m { // want "assigns to outer state; last iteration wins nondeterministically"
		*out = append(*out, k)
	}
}

// Fill stores keys into a slice parameter by position.
func Fill(m map[string]int, out []string) {
	i := 0
	for k := range m { // want "writes a map/slice entry not keyed by the iteration variable"
		out[i] = k
		i++
	}
}

// Visit hands each key to a callback.
func Visit(m map[string]int, f func(string)) {
	for k := range m { // want "statement with side effects inside map iteration"
		f(k)
	}
}
