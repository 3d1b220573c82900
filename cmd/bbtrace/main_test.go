package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAnalyzeFile(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	content := `{"t":1000000,"node":0,"type":"inject","msg":"0/1"}
{"t":2000000,"node":1,"type":"accept","msg":"0/1"}
{"t":1000000,"node":0,"type":"tx","kind":"data","msg":"0/1"}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if err := run([]string{path}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if errb.Len() != 0 {
		t.Fatalf("clean trace produced a warning: %q", errb.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, &out, &errb); err == nil {
		t.Fatal("missing argument accepted")
	}
	if err := run([]string{"/definitely/not/there.jsonl"}, &out, &errb); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run([]string{"explain", "-msg", "1/1", "/nope"}, &out, &errb); err == nil {
		t.Fatal("explain without -node accepted")
	}
	// 2^32 + 42 would wrap to node 42 in the 32-bit id.
	wrap := []string{"explain", "-msg", "1/1", "-node", "4294967338", filepath.Join("testdata", "truncated.jsonl")}
	if err := run(wrap, &out, &errb); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("explain -node past 32 bits: err = %v, want the usage error", err)
	}
}

// truncatedOffset computes where the mid-line-truncated final line of the
// fixture starts, so the tests track the fixture instead of hard-coding it.
func truncatedOffset(t *testing.T) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "truncated.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.LastIndexByte(data, '\n') + 1
}

func TestSummaryWarnsOnTruncatedTrace(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{filepath.Join("testdata", "truncated.jsonl")}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "events: 2") {
		t.Fatalf("summary did not report the decodable events:\n%s", out.String())
	}
	want := fmt.Sprintf("byte offset %d", truncatedOffset(t))
	if !strings.Contains(errb.String(), want) || !strings.Contains(errb.String(), "1 undecodable") {
		t.Fatalf("stderr = %q, want warning mentioning %q", errb.String(), want)
	}
}

func TestSummaryErrorsOnZeroDecodableEvents(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{filepath.Join("testdata", "garbage.jsonl")}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "no decodable events") {
		t.Fatalf("err = %v, want no-decodable-events error", err)
	}
	// The warning still localizes the damage: first bad line is at offset 0.
	if !strings.Contains(errb.String(), "byte offset 0") {
		t.Fatalf("stderr = %q, want byte offset 0", errb.String())
	}
}

func TestSummaryErrorsOnEmptyTrace(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	err := run([]string{empty}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "no decodable events") {
		t.Fatalf("err = %v, want no-decodable-events error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("empty trace still printed a report:\n%s", out.String())
	}
}

func TestLineageWarnsAndReportsOnTruncatedTrace(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"lineage", filepath.Join("testdata", "truncated.jsonl")}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "msg 1/1") {
		t.Fatalf("lineage report missing message:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), fmt.Sprintf("byte offset %d", truncatedOffset(t))) {
		t.Fatalf("stderr = %q, want truncation warning", errb.String())
	}
}

func TestLineageErrorsOnGarbageTrace(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"lineage", filepath.Join("testdata", "garbage.jsonl")}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "no decodable events") {
		t.Fatalf("err = %v, want no-decodable-events error", err)
	}
}

func TestExplainDelivered(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	lines := []string{
		`{"t":1000000,"node":1,"type":"inject","msg":"1/1"}`,
		`{"t":1000000,"node":1,"type":"tx","kind":"data","msg":"1/1","frame":1,"hops":1,"cause":"origin"}`,
		`{"t":2000000,"node":2,"type":"rx","kind":"data","msg":"1/1","frame":1,"hops":1,"cause":"origin"}`,
		`{"t":2000000,"node":2,"type":"accept","msg":"1/1","frame":1,"hops":1,"cause":"origin"}`,
		`{"t":3000000,"node":2,"type":"tx","kind":"data","msg":"1/1","frame":2,"parent":1,"hops":2,"cause":"origin-relay"}`,
		`{"t":4000000,"node":3,"type":"rx","kind":"data","msg":"1/1","frame":2,"hops":2,"cause":"origin-relay"}`,
		`{"t":4000000,"node":3,"type":"accept","msg":"1/1","frame":2,"hops":2,"cause":"origin-relay"}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if err := run([]string{"explain", "-msg", "1/1", "-node", "3", path}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "delivered") || !strings.Contains(got, "frame 2") || !strings.Contains(got, "frame 1") {
		t.Fatalf("explain did not walk the frame chain:\n%s", got)
	}

	// A node absent from the accept set is explained as a loss.
	out.Reset()
	if err := run([]string{"explain", "-msg", "1/1", "-node", "9", path}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "never delivered") {
		t.Fatalf("explain for non-deliverer:\n%s", out.String())
	}
}

func TestChromeExport(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "chrome.json")
	var out, errb bytes.Buffer
	err := run([]string{"lineage", "-chrome", outPath, filepath.Join("testdata", "truncated.jsonl")}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"traceEvents"`)) {
		t.Fatalf("chrome export missing traceEvents:\n%s", data)
	}
}
