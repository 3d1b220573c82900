// Package clean is a bbvet fixture with nothing to report: outside
// internal/, so only the annotation grammar applies, and its one annotation
// is justified.
package clean

import "time"

//bbvet:wallclock fixture: a tool outside internal/ may read the wall clock
func Uptime(start time.Time) time.Duration { return time.Since(start) }
