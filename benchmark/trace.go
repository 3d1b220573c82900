//bbvet:wallclock span tracer: reads the wall clock at the seams the benchmark inserts; durations are reported, never fed to the program

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"bbcast/internal/wire"
)

// spanKind names a seam. Kinds 0..wire.NumKinds are the protocol's receive
// handler by packet kind (0 = a kind the codec does not know).
type spanKind uint8

const (
	spanTimer spanKind = wire.NumKinds + 1 + iota
	spanBroadcast
	spanSign
	spanVerify
	spanObsv
	spanMacSend
	numSpanKinds
)

func (k spanKind) String() string {
	switch {
	case k == 0:
		return "core.handle.unknown"
	case int(k) <= wire.NumKinds:
		return "core.handle." + wire.Kind(k).String()
	}
	switch k {
	case spanTimer:
		return "core.timer"
	case spanBroadcast:
		return "core.broadcast"
	case spanSign:
		return "sig.sign"
	case spanVerify:
		return "sig.verify"
	case spanObsv:
		return "obsv"
	case spanMacSend:
		return "mac.send"
	}
	return "span(?)"
}

// span is one recorded call across a seam. Times are nanoseconds since the
// tracer was made. Spans that share Event belong to one simulated event;
// Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Kind   spanKind
	Event  uint32
	Parent int32
	Start  int64
	End    int64
}

// maxSpans bounds the spans kept in memory (24 B each). A default-scenario
// run crosses a seam a few million times; past the bound only the per-kind
// totals keep counting, and runner.spans_recorded says how many were kept.
const maxSpans = 1 << 18

type openSpan struct {
	kind     spanKind
	index    int32 // in tracer.spans, -1 when not recorded
	start    int64
	children int64 // time covered by child spans
}

// tracer accumulates spans for the single-threaded simulator rig. A span's
// self time is its duration minus the part its child spans cover.
type tracer struct {
	base  time.Time
	stack []openSpan
	event uint32

	self  [numSpanKinds]time.Duration
	calls [numSpanKinds]uint64
	spans []span
	total uint64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, maxSpans), stack: make([]openSpan, 0, 8)}
}

func (t *tracer) enter(k spanKind) {
	if len(t.stack) == 0 {
		t.event++
	}
	index := int32(-1)
	now := int64(time.Since(t.base))
	if len(t.spans) < cap(t.spans) {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].index
		}
		index = int32(len(t.spans))
		t.spans = append(t.spans, span{Kind: k, Event: t.event, Parent: parent, Start: now})
	}
	t.total++
	t.stack = append(t.stack, openSpan{kind: k, index: index, start: now})
}

func (t *tracer) exit() {
	now := int64(time.Since(t.base))
	n := len(t.stack) - 1
	top := t.stack[n]
	t.stack = t.stack[:n]
	dur := now - top.start
	t.self[top.kind] += time.Duration(dur - top.children)
	t.calls[top.kind]++
	if top.index >= 0 {
		t.spans[top.index].End = now
	}
	if n > 0 {
		t.stack[n-1].children += dur
	}
}

// selfTotal is the self time of every seam together.
func (t *tracer) selfTotal() time.Duration {
	var sum time.Duration
	for _, d := range t.self {
		sum += d
	}
	return sum
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			Name   string `json:"name"`
			Event  uint32 `json:"event"`
			Parent int32  `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.Kind.String(), s.Event, s.Parent, s.Start, s.End}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
