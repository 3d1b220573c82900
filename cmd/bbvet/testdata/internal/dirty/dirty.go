// Package dirty is a bbvet fixture with one finding: it sits under an
// internal/ directory, so the rule holds it, and it reads the wall clock.
package dirty

import "time"

func Stamp() time.Time { return time.Now() }
