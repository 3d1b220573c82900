// Command bbtrace digests a JSONL event trace produced by `bbsim -trace`.
//
//	bbsim -n 50 -trace /tmp/run.jsonl
//	bbtrace /tmp/run.jsonl                       # propagation summary
//	bbtrace lineage /tmp/run.jsonl               # per-message dissemination DAGs
//	bbtrace lineage -chrome /tmp/run.json /tmp/run.jsonl
//	bbtrace explain -msg 1/3 -node 42 /tmp/run.jsonl
//
// Every subcommand reads the trace once, streaming, into one trace.Digest;
// no subcommand holds the trace's events in memory. The summary reports
// per-message propagation times (messages with an inject event, in numeric
// origin/seq order), transmission and reception counts by kind, overlay role
// churn, suspicion lifecycles and accepts around each fault. The lineage
// report reconstructs each message's dissemination DAG: phase latencies,
// hop-count distributions, data-path vs gossip-recovery delivery attribution
// and loss-site localization. Explain answers "why was this delivery late" /
// "why did this node never deliver" for one (message, node) pair. The
// -chrome flag additionally exports the DAGs as Chrome trace-event JSON for
// about:tracing or Perfetto.
//
// Truncated or corrupt traces are reported, not ignored: undecodable lines
// produce a warning with the byte offset of the first one, and a trace with
// zero decodable events is an error.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"bbcast/internal/trace"
	"bbcast/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bbtrace:", err)
		os.Exit(1)
	}
}

const usage = `usage: bbtrace [summary] <trace.jsonl>
       bbtrace lineage [-chrome <out.json>] <trace.jsonl>
       bbtrace explain -msg <origin/seq> -node <id> <trace.jsonl>`

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("%s", usage)
	}
	switch args[0] {
	case "lineage":
		return runLineage(args[1:], stdout, stderr)
	case "explain":
		return runExplain(args[1:], stdout, stderr)
	case "summary":
		args = args[1:]
	}
	if len(args) != 1 {
		return fmt.Errorf("%s", usage)
	}
	d, err := load(args[0], stderr)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, d.Summary())
	return nil
}

func runLineage(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lineage", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chrome := fs.String("chrome", "", "also export Chrome trace-event JSON to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("%s", usage)
	}
	d, err := load(fs.Arg(0), stderr)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, d.Report())
	if *chrome != "" {
		out, err := os.Create(*chrome)
		if err != nil {
			return err
		}
		if err := d.ChromeTrace(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "bbtrace: wrote Chrome trace to %s (load in about:tracing or Perfetto)\n", *chrome)
	}
	return nil
}

func runExplain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	msg := fs.String("msg", "", "message id as origin/seq (required)")
	node := fs.Int64("node", -1, "node id (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Unset leaves -1. Node ids are 32-bit, so a larger value would silently
	// wrap to another node.
	if fs.NArg() != 1 || *msg == "" || *node < 0 || *node > math.MaxUint32 {
		return fmt.Errorf("%s", usage)
	}
	d, err := load(fs.Arg(0), stderr)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, d.Explain(*msg, wire.NodeID(*node)))
	return nil
}

// load digests a trace file, enforcing the decode-health contract shared by
// every subcommand: lossy decodes are surfaced on stderr so a truncated trace
// is never mistaken for a quiet run, and zero decodable events is an error.
func load(path string, stderr io.Writer) (*trace.Digest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := trace.Read(f)
	if err != nil {
		return nil, err
	}
	if d.Undecodable > 0 {
		fmt.Fprintf(stderr, "bbtrace: warning: %d undecodable line(s), first at byte offset %d (truncated or corrupt trace?)\n",
			d.Undecodable, d.FirstBadOffset)
	}
	if d.Decoded == 0 {
		return nil, fmt.Errorf("%s: no decodable events", path)
	}
	return d, nil
}
