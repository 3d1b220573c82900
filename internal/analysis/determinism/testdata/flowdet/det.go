// Package sim poses as a DetPackages member: every call chain out of a
// non-test, non-exempt function here is a determinism reporting frontier.
package sim

import "bbcast/internal/obsv"

func useStamp() int64 {
	return obsv.Stamp() // want `call chain reaches time\.Now: obsv\.Stamp → time\.Now`
}

func useWrapped() int64 {
	return obsv.Wrapped() // want `obsv\.Wrapped → obsv\.Stamp → time\.Now`
}

func useWallNow() int64 {
	return wallNow() // want `call chain reaches time\.Now: sim\.wallNow → time\.Now`
}

func useFine() int64 { return obsv.Fine() }

func useReviewed() int64 { return obsv.Reviewed() }

func useEmit(m map[int]int, ch chan int) {
	obsv.Emit(m, ch) // want `call chain leaks map iteration order: obsv\.Emit → order-dependent map range \(sends on a channel\)`
}

func useSorted(m map[int]int) []int { return obsv.Sorted(m) }

func useJustified(m map[int]int, ch chan int) { obsv.Justified(m, ch) }

func escapeStamp() int64 {
	//bbvet:wallclock fixture: boot banner timestamp only
	return obsv.Stamp()
}

func escapeEmit(m map[int]int, ch chan int) {
	obsv.Emit(m, ch) //bbvet:unordered fixture: receiver treats the stream as a set
}
