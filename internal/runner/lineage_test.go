package runner

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"bbcast/internal/trace"
)

// lineageReport reads a raw trace and renders its lineage report, failing
// on any decode damage (golden traces must be complete).
func lineageReport(t *testing.T, name string, raw []byte) string {
	t.Helper()
	d, err := trace.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: read: %v", name, err)
	}
	if d.Undecodable != 0 {
		t.Fatalf("%s: %d undecodable lines in a fresh trace", name, d.Undecodable)
	}
	return d.Report()
}

// failSink accepts a fixed number of writes, then fails every subsequent one.
type failSink struct{ n, limit int }

func (f *failSink) Write(p []byte) (int, error) {
	if f.n >= f.limit {
		return 0, errors.New("sink full")
	}
	f.n++
	return len(p), nil
}

// TestTraceErrSurfacesLossySink pins the lossy-trace contract at the runner
// level: a failing sink never aborts the run, the loss is reported exactly
// once via Result.TraceErr (which is what drives bbsim's single warning),
// and under replicates only replicate 0 — the only one holding the sink —
// reports it.
func TestTraceErrSurfacesLossySink(t *testing.T) {
	sc := goldenConfigs()[0]
	sc.Trace = &failSink{limit: 10}
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("lossy sink aborted the run: %v", err)
	}
	if res.TraceErr == nil {
		t.Fatal("sink failed after 10 writes but Result.TraceErr is nil")
	}

	sc.Trace = &failSink{limit: 10}
	rs, err := (Pool{Workers: 2}).RunReplicates(sc, 2)
	if err != nil {
		t.Fatalf("replicates: %v", err)
	}
	if rs[0].TraceErr == nil {
		t.Error("replicate 0 held the lossy sink but reports no TraceErr")
	}
	if rs[1].TraceErr != nil {
		t.Errorf("replicate 1 has no sink but reports TraceErr: %v", rs[1].TraceErr)
	}
}

// TestLineageDeterminism extends the golden-trace contract to the lineage
// analyzer: over every golden scenario the serial and pool-replicate-0 runs
// must produce byte-identical lineage reports, and the det-byzcast-grid
// report is pinned against a committed golden. Regenerate after an
// intentional change with:
//
//	go test ./internal/runner/ -run TestLineageDeterminism -update
func TestLineageDeterminism(t *testing.T) {
	goldenPath := filepath.Join("testdata", "lineage_golden.txt")
	for _, sc := range goldenConfigs() {
		var serialBuf bytes.Buffer
		serialSC := sc
		serialSC.Trace = &serialBuf
		if _, err := Run(serialSC); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		serialReport := lineageReport(t, sc.Name+"/serial", serialBuf.Bytes())

		var poolBuf bytes.Buffer
		poolSC := sc
		poolSC.Trace = &poolBuf
		if _, err := (Pool{Workers: 4}).RunReplicates(poolSC, 2); err != nil {
			t.Fatalf("%s: pool: %v", sc.Name, err)
		}
		poolReport := lineageReport(t, sc.Name+"/pool", poolBuf.Bytes())

		if serialReport != poolReport {
			t.Errorf("%s: lineage reports differ between serial and pool runs", sc.Name)
		}
		if serialReport == "" {
			t.Errorf("%s: empty lineage report", sc.Name)
		}

		if sc.Name != "det-byzcast-grid" {
			continue
		}
		if *updateGoldens {
			if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath, []byte(serialReport), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", goldenPath)
			continue
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("read lineage golden (run with -update to create): %v", err)
		}
		if string(want) != serialReport {
			t.Errorf("%s: lineage report diverged from %s — if intentional, regenerate with -update",
				sc.Name, goldenPath)
		}
	}
}
