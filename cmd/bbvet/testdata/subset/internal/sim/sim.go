// Package sim is in the deterministic package set, so its map range is a
// finding here, reported only when this package is named.
package sim

// Keys returns m's keys in map iteration order.
func Keys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
