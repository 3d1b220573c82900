// Command bbsim runs one simulated broadcast scenario and prints its
// results.
//
// Examples:
//
//	bbsim -n 100 -rate 2 -duration 90s
//	bbsim -proto flooding -n 50
//	bbsim -mute 10 -placement dominators -no-fd
//	bbsim -mobility waypoint -speed 10
//	bbsim -faults plan.json
//	bbsim -faults '{"events":[{"at":"30s","kind":"crash","node":7}]}'
//	bbsim -sync -faults '{"churn":{"rate":0.2,"start":"15s","end":"75s","downtime":"20s","wipe":true}}'
//
// With -faults, the plan's events (crashes, recoveries, partitions, radio
// degradation, behaviour swaps, churn) execute during the run and the
// runtime invariant checker audits agreement, validity, detector soundness
// and overlay recovery. Violations fail the run (exit 1) and print a
// one-line command that reproduces them.
//
// Amnesiac crashes (event kind "crash-amnesia", or churn with "wipe": true)
// wipe the node's volatile state, so on recovery it restarts from scratch.
// -persist gives every node a durable store an amnesiac rejoiner restores
// its sequence number, delivered digests and suspicions from; -sync
// additionally lets it bulk-recover the messages it missed from one
// neighbour. -persist-tear and -persist-flip damage the durable log at
// recovery to exercise the replay-truncate and CRC-rejection paths.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bbcast"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bbsim:", err)
		os.Exit(1)
	}
}

// options are the flags that say how to run and report, not what to simulate.
type options struct {
	replicates, parallel int
	breakdown            bool
	trace, metricsOut    string
}

// stderr is where usage, warnings and violations go; a test points it at a
// buffer.
var stderr io.Writer = os.Stderr

// parse reads the command line: the flags that spell a scenario, which
// bbcast.ScenarioFlags owns, and the options.
func parse(args []string) (bbcast.Scenario, options, error) {
	fs := flag.NewFlagSet("bbsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := bbcast.ScenarioFlags(fs)
	var (
		replicates = fs.Int("replicates", 1, "independent replicates to run (seeds derived from -seed via SplitMix64); results are averaged")
		parallel   = fs.Int("parallel", 0, "concurrent replicate simulations (0 = GOMAXPROCS); per-replicate results are identical at any setting")
		breakdown  = fs.Bool("breakdown", false, "print per-kind transmission counts")
		svg        = fs.String("svg", "", "write an SVG of the final topology/overlay to this path")
		traceFile  = fs.String("trace", "", "write a JSONL event trace to this path")
		metricsOut = fs.String("metrics-out", "", "write the run's metrics registry as JSON to this path ('-' for stdout); same schema a live node serves at /metrics.json")
	)
	if err := fs.Parse(args); err != nil {
		return bbcast.Scenario{}, options{}, err
	}
	if *replicates < 1 {
		return bbcast.Scenario{}, options{}, fmt.Errorf("-replicates must be >= 1, got %d", *replicates)
	}
	sc, err := scenario()
	sc.SnapshotSVG = *svg
	return sc, options{*replicates, *parallel, *breakdown, *traceFile, *metricsOut}, err
}

func run(args []string) error {
	sc, o, err := parse(args)
	if err != nil {
		return err
	}
	if o.trace != "" {
		f, err := os.Create(o.trace)
		if err != nil {
			return err
		}
		defer f.Close()
		sc.Trace = f
	}
	var registry *bbcast.MetricsRegistry
	if o.metricsOut != "" {
		registry = bbcast.NewMetricsRegistry()
		sc.Observer = bbcast.NewMetricsObserver(registry)
	}

	// With several replicates, single-writer sinks (-trace, -svg, the
	// metrics registry) are kept on replicate 0 only; replicate 0 runs the
	// base seed, so its outputs match a plain single run.
	all, err := bbcast.RunReplicates(sc, o.replicates, o.parallel)
	if err != nil {
		return err
	}
	res := all[0]
	if o.replicates > 1 {
		for k, r := range all {
			fmt.Printf("replicate %-3d seed=%-20d delivery=%.3f tx/msg=%.1f lat-mean=%s violations=%d\n",
				k, bbcast.ReplicateSeed(sc.Seed, k), r.DeliveryRatio, r.TxPerMessage, r.LatMean.Round(time.Millisecond), len(r.Violations))
		}
		res = bbcast.AverageResults(all)
		fmt.Printf("aggregate over %d replicates:\n", o.replicates)
	}
	if all[0].TraceErr != nil {
		fmt.Fprintf(stderr, "bbsim: warning: trace is incomplete (first write error: %v)\n", all[0].TraceErr)
	}
	if registry != nil {
		// The ratio is only known once the run's eligible-receiver counts
		// are; exported here so the JSON dump is self-contained. The
		// registry observes replicate 0 only, so its gauge uses that run.
		registry.Gauge("bbcast_delivery_ratio").Set(all[0].Results.DeliveryRatio)
		if err := writeMetrics(o.metricsOut, registry); err != nil {
			return err
		}
	}
	fmt.Println(res.Results.String())
	if len(res.FaultEvents) > 0 {
		fmt.Println("fault events:")
		for _, fe := range res.FaultEvents {
			fmt.Printf("  %-8s %s\n", fe.At, fe.Name)
		}
	}
	if len(res.Violations) > 0 {
		fmt.Fprintf(stderr, "INVARIANT VIOLATIONS (%d):\n", len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(stderr, "  %s\n", v)
		}
		fmt.Fprintf(stderr, "reproduce with:\n  %s\n", res.Repro)
		return fmt.Errorf("%d invariant violation(s)", len(res.Violations))
	}
	if o.breakdown {
		fmt.Println(res.Results.KindBreakdown())
		fmt.Printf("phys: collisions=%d fringe-losses=%d half-duplex-drops=%d bytes=%d\n",
			res.Phys.Collisions, res.Phys.FringeLosses, res.Phys.HalfDuplexDrop, res.Phys.BytesOnAir)
		fmt.Printf("node: forwarded=%d gossips=%d requests=%d finds=%d served=%d bad-sigs=%d\n",
			res.Node.Forwarded, res.Node.GossipsSent, res.Node.RequestsSent,
			res.Node.FindsSent, res.Node.RecoveredByData, res.Node.BadSignatures)
		if len(sc.Adversaries) > 0 {
			fmt.Printf("adversaries detected by correct nodes: %d\n", res.AdversariesDetected)
		}
	}
	return nil
}

// writeMetrics dumps the registry as JSON to path, or stdout for "-".
func writeMetrics(path string, r *bbcast.MetricsRegistry) error {
	if path == "-" {
		return r.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
