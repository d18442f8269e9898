// Package sig (fixture) seeds the three nondeterminism classes
// elsadetflow bans outright in the training packages: wall-clock reads,
// the global rand source, and map order escaping into ordered output —
// the bug class the pipeline's slot-indexed merges exist to prevent.
package sig

import (
	"math/rand"
	"sort"
	"time"
)

func clocks() time.Duration {
	t := time.Now()      // want "time.Now reads the wall clock"
	return time.Since(t) // want "time.Since reads the wall clock"
}

func globalRand() int {
	return rand.Intn(10) // want "rand.Intn uses the shared global source"
}

func seededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed)) // constructors are the sanctioned pattern
	return rng.Intn(10)
}

// mapEscapes builds an ordered slice in map iteration order and never
// sorts it: per-run output order.
func mapEscapes(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v) // want "built in map iteration order and never sorted"
	}
	return out
}

// mapSorted is the sanctioned pattern: collect, then sort.
func mapSorted(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// mapGrouping appends into a map element keyed by the loop variable:
// order-insensitive grouping, not ordered output.
func mapGrouping(m map[int]int) map[int][]int {
	groups := make(map[int][]int)
	for k, v := range m {
		groups[k%2] = append(groups[k%2], v+k)
	}
	return groups
}
