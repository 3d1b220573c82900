// Package metrics sits outside the deterministic package set, so its map
// range is no finding of its own: it taints LeakX's callers.
package metrics

// LeakX returns m's keys in map iteration order.
func LeakX(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
