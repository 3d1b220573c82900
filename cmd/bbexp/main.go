// Command bbexp regenerates the paper-reproduction experiment tables
// (DESIGN.md E1–E17 and ablations A1–A9).
//
// Usage:
//
//	bbexp -all                  # run the full suite (minutes)
//	bbexp -exp E4               # run one experiment
//	bbexp -all -quick           # shrunken sweeps for a fast smoke run
//	bbexp -all -parallel 8      # cap the worker pool at 8 simulations
//	bbexp -list                 # list experiment ids
//
// Every distinct scenario of the requested tables, times its replicate seeds,
// runs on one worker pool (-parallel, default GOMAXPROCS); a scenario that
// several tables show is simulated once. Each simulation remains
// single-threaded and bit-identical: per-replicate seeds are derived from the
// base seed with SplitMix64, so results never depend on the worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bbcast/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bbexp:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bbexp", flag.ContinueOnError)
	all := fs.Bool("all", false, "run the full experiment suite")
	exp := fs.String("exp", "", "run one experiment by id (e.g. E4)")
	quick := fs.Bool("quick", false, "shrink sweeps and durations")
	list := fs.Bool("list", false, "list experiment ids")
	seed := fs.Int64("seed", 1, "base random seed")
	parallel := fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS); per-replicate results are identical at any setting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Quick: *quick, Seed: *seed, Parallel: *parallel}

	switch {
	case *list:
		fmt.Println(strings.Join(experiments.IDs(), " "))
		return nil
	case *exp != "":
		table, ok := experiments.ByID(*exp, cfg)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *exp)
		}
		fmt.Println(table)
		return nil
	case *all:
		for _, table := range experiments.All(cfg) {
			fmt.Println(table)
		}
		return nil
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -all, -exp <id>, or -list")
	}
}
