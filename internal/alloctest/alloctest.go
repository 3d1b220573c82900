// Package alloctest holds allocation ceilings for tests: the hot paths that
// were made allocation-free stay that way because a test counts.
package alloctest

import "testing"

// AtMost fails t when fn allocates more than max times per call on average.
// Set-up allocations belong before the call: fn runs once to warm up and then
// a hundred times counted. The test is skipped under the race detector,
// whose instrumentation allocates on its own.
func AtMost(t *testing.T, max float64, fn func()) {
	t.Helper()
	SkipUnderRace(t)
	if got := testing.AllocsPerRun(100, fn); got > max {
		t.Errorf("%v allocations per run, ceiling is %v", got, max)
	}
}

// SkipUnderRace skips t when the race detector is on, for allocation tests
// that count by other means than AtMost.
func SkipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts inflate under -race")
	}
}
