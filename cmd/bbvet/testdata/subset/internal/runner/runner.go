// Package runner is in the deterministic package set and reaches an order
// leak in metrics through a call.
package runner

import (
	"bbcast/internal/metrics"
	"bbcast/internal/sim"
)

// Distrusts calls into both other packages.
func Distrusts(m map[int]bool) int {
	return len(metrics.LeakX(m)) + len(sim.Keys(m))
}
