// Package runner is an obsvonce drift fixture type-checked as
// bbcast/internal/runner: it defines run, one of the package's two emission
// sources, but not scheduleWorkload, so that row of the table is stale.
package runner // want `emission table drift: source bbcast/internal/runner\.scheduleWorkload no longer exists`

func run() {}
