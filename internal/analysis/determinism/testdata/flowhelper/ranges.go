package obsv

import "sort"

// Emit leaks map iteration order through a channel send. This package poses
// as bbcast/internal/obsv — outside DetPackages — so the direct map-range
// check never fires here; determinism treats it as a taint source instead.
func Emit(m map[int]int, ch chan int) {
	for _, v := range m {
		ch <- v
	}
}

// Sorted collects and sorts in the same function: order-insensitive, clean.
func Sorted(m map[int]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Justified sends in map order under a reviewed annotation; it does not
// taint.
func Justified(m map[int]int, ch chan int) {
	//bbvet:unordered fixture: receiver drains into a set
	for _, v := range m {
		ch <- v
	}
}
