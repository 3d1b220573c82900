// Package sim is a determinism fixture: the test type-checks it under the
// import path bbcast/internal/sim, so the whole rule applies.
package sim

import (
	"math/rand"
	"sort"
	"time"
)

var bootTime = time.Now() // want `time\.Now is wall clock`

func wallClock() time.Duration {
	now := time.Now()      // want `time\.Now is wall clock`
	return time.Since(now) // want `time\.Since is wall clock`
}

func timers(fn func()) {
	time.Sleep(time.Millisecond)            // want `time\.Sleep is wall clock`
	time.AfterFunc(time.Millisecond, fn)    // want `time\.AfterFunc is wall clock`
	_ = time.Millisecond * time.Duration(3) // duration arithmetic is fine
}

func annotatedWallClock() int64 {
	//bbvet:wallclock fixture: this one line measures real time on purpose
	return time.Now().UnixNano()
}

func globalRand() int {
	return rand.Intn(10) // want `global rand\.Intn is process-shared`
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global rand\.Shuffle is process-shared`
}

func seededRand(r *rand.Rand) int {
	return r.Intn(10) // an injected source is exactly how determinism is done
}

func constructorLegal() *rand.Rand {
	return rand.New(rand.NewSource(1))
}

func emits(m map[int]int, sink func(int)) {
	for k := range m { // want `range over map has order-dependent effects \(calls sink`
		sink(k)
	}
}

func sortedAfterLoop(m map[int]int) []int {
	var keys []int
	for k := range m { // collected then sorted below: order cannot leak
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func neverSorted(m map[int]int) []int {
	var keys []int
	for k := range m { // want `appends to keys, never sorted in this function`
		keys = append(keys, k)
	}
	return keys
}

func twoTargets(m map[int]int) ([]int, []int) {
	var keys, vals []int
	for k, v := range m { // want `appends to keys, never sorted in this function`
		keys = append(keys, k)
		vals = append(vals, v)
	}
	return keys, vals
}

func annotatedUnordered(m map[int]int, sink func(int)) {
	//bbvet:unordered fixture: sink is order-insensitive by contract
	for k := range m {
		sink(k)
	}
}

func pureFold(m map[int]int) int {
	total := 0
	for _, v := range m { // commutative fold, no calls: nothing to flag
		total += v
	}
	return total
}

func purge(m map[int]int) {
	for k := range m { // delete reaches the same final state in any order
		delete(m, k)
	}
}

func channelSend(m map[int]int, ch chan int) {
	for k := range m { // want `sends on a channel`
		ch <- k
	}
}

func closureScope(m map[int]int) func() []int {
	keys := make([]int, 0, len(m))
	return func() []int {
		for k := range m { // want `appends to keys, never sorted in this function`
			keys = append(keys, k)
		}
		return keys
	}
}

//bbvet:frobnicate trying to invent an escape hatch // want `unknown annotation //bbvet:frobnicate`
