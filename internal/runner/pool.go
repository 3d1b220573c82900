// Parallel experiment engine: a worker pool that fans independent
// (seed, scenario) replicates out across GOMAXPROCS workers while keeping
// each individual simulation run single-threaded and bit-identical.
//
// Every simulation owns its engine, medium, protocol instances, RNG streams
// and metric collectors, so runs share nothing and any interleaving of
// workers produces the same per-replicate results as a serial loop. The only
// sharing hazards are the caller-provided sinks on a Scenario (Trace,
// Observer, SnapshotSVG); ReplicateScenarios strips them from every
// replicate but the first so a sink is never written by two runs at once.
package runner

import (
	"fmt"
	"maps"
	"runtime"
	"sync"
)

// ReplicateSeed derives the engine seed for replicate k of a base seed.
// Replicate 0 keeps the base seed (a single replicate is exactly the plain
// run); later replicates pass base+k through a SplitMix64 finalizer so their
// RNG streams are decorrelated from the base and from each other.
//
// The derivation depends only on (base, k) — never on worker count or
// execution order — so replicate k's results are invariant under any
// parallelism level.
func ReplicateSeed(base int64, k int) int64 {
	if k == 0 {
		return base
	}
	z := uint64(base) + uint64(k)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// ReplicateScenarios expands a base scenario into count replicates with
// seeds derived by ReplicateSeed. Caller-provided output sinks (Trace,
// Observer, SnapshotSVG) are kept only on replicate 0: they are single-writer
// objects, and sharing one across concurrently-running replicates would
// interleave their output (for observers backed by an obsv.Registry, mix
// atomic counters from unrelated runs). Callers that want per-replicate
// observers attach a fresh one to each returned scenario.
func ReplicateScenarios(base Scenario, count int) []Scenario {
	scs := make([]Scenario, count)
	for k := range scs {
		sc := base
		sc.Seed = ReplicateSeed(base.Seed, k)
		if count > 1 {
			sc.Name = fmt.Sprintf("%s/r%d", base.Name, k)
		}
		if k > 0 {
			sc.Trace = nil
			sc.Observer = nil
			sc.SnapshotSVG = ""
		}
		scs[k] = sc
	}
	return scs
}

// Pool runs independent scenarios across a fixed number of workers. Each
// scenario still executes on a single goroutine (the simulator is
// single-threaded by design); the pool only provides parallelism *across*
// runs. The zero value runs with GOMAXPROCS workers.
type Pool struct {
	// Workers is the number of concurrent simulations; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
}

// workers resolves the effective worker count.
func (p Pool) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunAll executes every scenario and returns their results in input order.
// All scenarios run even if some fail; the first error (in input order) is
// returned alongside the results.
func (p Pool) RunAll(scs []Scenario) ([]Result, error) {
	results := make([]Result, len(scs))
	errs := make([]error, len(scs))
	w := p.workers()
	if w > len(scs) {
		w = len(scs)
	}
	if w <= 1 {
		for i := range scs {
			results[i], errs[i] = Run(scs[i])
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		wg.Add(w)
		for g := 0; g < w; g++ {
			go func() {
				defer wg.Done()
				for i := range jobs {
					results[i], errs[i] = Run(scs[i])
				}
			}()
		}
		for i := range scs {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// RunReplicates runs count replicates of the base scenario (seeds derived by
// ReplicateSeed) and returns the per-replicate results in replicate order.
func (p Pool) RunReplicates(base Scenario, count int) ([]Result, error) {
	if count <= 0 {
		return nil, fmt.Errorf("runner: need count > 0 replicates, got %d", count)
	}
	return p.RunAll(ReplicateScenarios(base, count))
}

// Average reduces per-replicate results to their mean: ratio and latency
// fields become per-replicate means, counters become per-replicate mean
// counts. Violations and fault events are concatenated (they identify the
// replicates that misbehaved, which averaging would hide). Everything else is
// the first replicate's.
func Average(rs []Result) Result {
	if len(rs) == 0 {
		return Result{}
	}
	out := rs[0]
	if len(rs) == 1 {
		return out
	}
	out.TxByKind = maps.Clone(out.TxByKind)
	out.Violations, out.FaultEvents = nil, nil
	for i, r := range rs {
		if i > 0 {
			out.Results.Add(r.Results)
			out.Phys.Add(r.Phys)
			out.Node.Add(r.Node)
			out.AdversariesDetected += r.AdversariesDetected
			out.Events += r.Events
		}
		out.Violations = append(out.Violations, r.Violations...)
		out.FaultEvents = append(out.FaultEvents, r.FaultEvents...)
		if out.Repro == "" {
			out.Repro = r.Repro
		}
	}
	n := uint64(len(rs))
	out.Results.Div(len(rs))
	out.Phys.Div(n)
	out.Node.Div(n)
	out.AdversariesDetected /= len(rs)
	out.Events /= n
	return out
}
