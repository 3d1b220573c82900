package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// sampleEvents builds a small dissemination: node 1 injects 1/1 and
// transmits frame 1; node 2 accepts off frame 1 and relays as frame 2;
// node 3 accepts off frame 2 via gossip recovery; node 4 is present (role
// event) but never delivers; node 2 also sees a duplicate (suppressed).
func sampleEvents() []Event {
	ms := func(n int) int64 { return int64(time.Duration(n) * time.Millisecond) }
	return []Event{
		{T: ms(10), Node: 1, Type: TypeInject, Msg: "1/1"},
		{T: ms(10), Node: 1, Type: TypeAccept, Msg: "1/1", Cause: "origin"},
		{T: ms(12), Node: 1, Type: TypeTx, Kind: "data", Msg: "1/1", Frame: 1, Hops: 1, Cause: "origin"},
		{T: ms(20), Node: 2, Type: TypeRx, Kind: "data", Msg: "1/1", Frame: 1, Hops: 1, Cause: "origin"},
		{T: ms(20), Node: 2, Type: TypeAccept, Msg: "1/1", Frame: 1, Hops: 1, Cause: "origin"},
		{T: ms(25), Node: 2, Type: TypeTx, Kind: "data", Msg: "1/1", Frame: 2, Parent: 1, Hops: 2, Cause: "gossip-recovery", Rec: true},
		{T: ms(40), Node: 3, Type: TypeRx, Kind: "data", Msg: "1/1", Frame: 2, Hops: 2, Rec: true},
		{T: ms(40), Node: 3, Type: TypeAccept, Msg: "1/1", Frame: 2, Hops: 2, Rec: true, Cause: "gossip-recovery"},
		{T: ms(41), Node: 2, Type: TypeRx, Kind: "data", Msg: "1/1", Frame: 1},
		{T: ms(41), Node: 2, Type: TypeSuppress, Msg: "1/1", Frame: 1},
		{T: ms(50), Node: 4, Type: TypeRole, Detail: "dominator"},
		{T: ms(60), Node: 4, Type: TypeTx, Kind: "request", Msg: "1/1", Cause: "request"},
	}
}

// readEvents writes events as a JSONL trace and reads it back.
func readEvents(t *testing.T, evs []Event) *Digest {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ev := range evs {
		w.Emit(ev)
	}
	d, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLineagePhasesAndAttribution(t *testing.T) {
	l := readEvents(t, sampleEvents())
	if l.Nodes != 4 {
		t.Fatalf("Nodes = %d, want 4", l.Nodes)
	}
	m := l.Message("1/1")
	if m == nil {
		t.Fatal("message 1/1 missing")
	}
	if m.Origin != 1 || !m.Injected || m.InjectedAt != 10*time.Millisecond {
		t.Fatalf("origin/inject = %d/%v/%s", m.Origin, m.Injected, m.InjectedAt)
	}
	if m.FirstRelay != 15*time.Millisecond {
		t.Fatalf("FirstRelay = %s, want 15ms (frame 2 at 25ms - inject 10ms)", m.FirstRelay)
	}
	if m.Last != 30*time.Millisecond {
		t.Fatalf("Last = %s, want 30ms (accept at 40ms)", m.Last)
	}
	if m.Accepts != 3 {
		t.Fatalf("Accepts = %d, want 3 (origin included)", m.Accepts)
	}
	if m.DataPath != 1 || m.Recovered != 1 {
		t.Fatalf("attribution = data %d / recovered %d, want 1/1", m.DataPath, m.Recovered)
	}
	if m.Suppressed != 1 {
		t.Fatalf("Suppressed = %d, want 1", m.Suppressed)
	}
	if m.HopDist[1] != 1 || m.HopDist[2] != 1 || m.HopMax != 2 {
		t.Fatalf("hop dist = %v max %d", m.HopDist, m.HopMax)
	}
	if len(m.Frames) != 2 || m.Frames[0].Frame != 1 || m.Frames[1].Parent != 1 {
		t.Fatalf("frames = %+v", m.Frames)
	}
	if m.Frames[0].RxCount != 2 || m.Frames[0].AcceptCount != 1 {
		t.Fatalf("frame 1 rx/accepts = %d/%d, want 2/1", m.Frames[0].RxCount, m.Frames[0].AcceptCount)
	}
	if len(m.Losses) != 1 || m.Losses[0].Node != 4 {
		t.Fatalf("losses = %+v, want node 4", m.Losses)
	}
	ls := m.Losses[0]
	if ls.Requests != 1 || ls.DataRx != 0 {
		t.Fatalf("loss site = %+v, want 1 request, 0 data rx", ls)
	}
	if ls.LastHolder != 2 || ls.LastHolderAt != 25*time.Millisecond {
		t.Fatalf("last holder = %d @ %s, want 2 @ 25ms", ls.LastHolder, ls.LastHolderAt)
	}
}

func TestLineageReportOrderIndependent(t *testing.T) {
	evs := sampleEvents()
	l1 := readEvents(t, evs)
	// Reverse the event order: the report must not change.
	rev := make([]Event, len(evs))
	for i, ev := range evs {
		rev[len(evs)-1-i] = ev
	}
	l2 := readEvents(t, rev)
	if l1.Report() != l2.Report() {
		t.Fatalf("report depends on event order:\n--- forward:\n%s--- reversed:\n%s", l1.Report(), l2.Report())
	}
}

func TestLineageExplain(t *testing.T) {
	l := readEvents(t, sampleEvents())
	got := l.Explain("1/1", 3)
	if !strings.Contains(got, "delivered") || !strings.Contains(got, "gossip recovery") {
		t.Fatalf("explain delivered:\n%s", got)
	}
	if !strings.Contains(got, "frame 2") || !strings.Contains(got, "frame 1") {
		t.Fatalf("explain did not walk the parent chain:\n%s", got)
	}
	got = l.Explain("1/1", 4)
	if !strings.Contains(got, "never delivered") || !strings.Contains(got, "recovery request") {
		t.Fatalf("explain non-deliverer:\n%s", got)
	}
	if !strings.Contains(got, "last holder") {
		t.Fatalf("explain missing loss localization:\n%s", got)
	}
	if got := l.Explain("9/9", 1); !strings.Contains(got, "not present") {
		t.Fatalf("explain unknown message:\n%s", got)
	}
}

func TestLineageChromeTraceDeterministic(t *testing.T) {
	l := readEvents(t, sampleEvents())
	var a, b bytes.Buffer
	if err := l.ChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := l.ChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("ChromeTrace output is not deterministic")
	}
	if !strings.Contains(a.String(), `"traceEvents"`) || !strings.Contains(a.String(), `"ph":"X"`) {
		t.Fatalf("chrome export malformed:\n%s", a.String())
	}
}

// TestLineageDegradesOnTruncatedTrace serializes a run, truncates it
// mid-line, and checks the lineage still reports what survived, with the
// damage called out instead of hidden.
func TestLineageDegradesOnTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ev := range sampleEvents() {
		w.Emit(ev)
	}
	full := buf.Bytes()
	// Cut inside the final line.
	cut := bytes.LastIndexByte(full[:len(full)-1], '\n') + 5
	d, err := Read(bytes.NewReader(full[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	if d.Undecodable != 1 || d.Decoded != len(sampleEvents())-1 {
		t.Fatalf("Decoded/Undecodable = %d/%d, want %d/1", d.Decoded, d.Undecodable, len(sampleEvents())-1)
	}
	wantOffset := int64(bytes.LastIndexByte(full[:len(full)-1], '\n') + 1)
	if d.FirstBadOffset != wantOffset {
		t.Fatalf("FirstBadOffset = %d, want %d", d.FirstBadOffset, wantOffset)
	}
	rep := d.Report()
	if !strings.Contains(rep, "msg 1/1") {
		t.Fatalf("truncated lineage lost the message:\n%s", rep)
	}
	if !strings.Contains(rep, "warning: 1 undecodable") {
		t.Fatalf("truncated lineage did not surface the damage:\n%s", rep)
	}
}
