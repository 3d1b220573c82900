//bbvet:wallclock fixture: this file measures real time by design

package obsv

import "time"

// Stamp's direct diagnostic is suppressed by the file exemption, so it is a
// taint source for determinism.
func Stamp() int64 { return time.Now().UnixNano() }

// Wrapped carries the taint one call further.
func Wrapped() int64 { return Stamp() }

// Fine never touches the forbidden surface.
func Fine() int64 { return 42 }

// Reviewed's wall-clock call has a line-level justification; reviewed lines
// do not taint.
func Reviewed() int64 {
	t := time.Now().UnixNano() //bbvet:wallclock fixture: reviewed line-level escape
	return t
}
