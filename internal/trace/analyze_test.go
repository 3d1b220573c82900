package trace

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func sampleTrace(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	w := NewWriter(&b)
	w.Emit(Event{T: At(time.Second), Node: 0, Type: TypeInject, Msg: "0/1"})
	w.Emit(Event{T: At(time.Second), Node: 0, Type: TypeTx, Kind: "data", Msg: "0/1"})
	w.Emit(Event{T: At(1100 * time.Millisecond), Node: 1, Type: TypeAccept, Msg: "0/1"})
	w.Emit(Event{T: At(1200 * time.Millisecond), Node: 2, Type: TypeAccept, Msg: "0/1"})
	w.Emit(Event{T: At(1900 * time.Millisecond), Node: 3, Type: TypeAccept, Msg: "0/1"})
	w.Emit(Event{T: At(2 * time.Second), Node: 5, Type: TypeRole, Detail: "dominator"})
	w.Emit(Event{T: At(3 * time.Second), Node: 5, Type: TypeRole, Detail: "passive"})
	w.Emit(Event{T: At(4 * time.Second), Node: 1, Type: TypeTx, Kind: "gossip"})
	return b.String()
}

func TestAnalyzeCounts(t *testing.T) {
	a, err := Read(strings.NewReader(sampleTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Decoded != 8 {
		t.Fatalf("events = %d", a.Decoded)
	}
	if a.TxByKind["data"] != 1 || a.TxByKind["gossip"] != 1 {
		t.Fatalf("tx = %v", a.TxByKind)
	}
	if len(a.Messages) != 1 {
		t.Fatalf("messages = %d", len(a.Messages))
	}
	m := a.Messages[0]
	if m.Msg != "0/1" || m.Accepts != 3 {
		t.Fatalf("message = %+v", m)
	}
	if m.T50 != 200*time.Millisecond {
		t.Fatalf("t50 = %v", m.T50)
	}
	if m.Last != 900*time.Millisecond {
		t.Fatalf("last = %v", m.Last)
	}
	if a.RoleChanges[5] != 2 {
		t.Fatalf("role changes = %v", a.RoleChanges)
	}
}

func TestAnalyzeSkipsGarbageLines(t *testing.T) {
	in := sampleTrace(t) + "not json\n{\"broken\n"
	a, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.Decoded != 8 || a.Undecodable != 2 {
		t.Fatalf("decoded/undecodable = %d/%d, want 8/2", a.Decoded, a.Undecodable)
	}
}

func TestSummaryRenders(t *testing.T) {
	a, err := Read(strings.NewReader(sampleTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	out := a.Summary()
	for _, want := range []string{"events: 8", "data=1", "messages: 1", "0/1", "role changes: 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a, err := Read(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if a.Decoded != 0 || len(a.Messages) != 0 {
		t.Fatalf("empty trace produced %+v", a)
	}
	if !strings.Contains(a.Summary(), "events: 0") {
		t.Fatal("empty summary broken")
	}
}

func TestAnalyzeFaultCorrelation(t *testing.T) {
	var lines strings.Builder
	// 5 accepts in the 10s before the fault, 2 after.
	sec := int64(time.Second)
	for _, at := range []int64{22, 24, 25, 27, 29, 31, 33} {
		fmt.Fprintf(&lines, `{"t":%d,"node":1,"type":"accept","msg":"0/1"}`+"\n", at*sec)
	}
	fmt.Fprintf(&lines, `{"t":%d,"type":"fault","detail":"crash(7)"}`+"\n", 30*sec)
	fmt.Fprintf(&lines, `{"t":%d,"type":"fault","detail":"heal"}`+"\n", 60*sec)
	a, err := Read(strings.NewReader(lines.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Faults) != 2 {
		t.Fatalf("faults = %v", a.Faults)
	}
	f := a.Faults[0]
	if f.Name != "crash(7)" || f.At != 30*time.Second {
		t.Fatalf("fault[0] = %+v", f)
	}
	if f.AcceptsBefore != 5 || f.AcceptsAfter != 2 {
		t.Fatalf("correlation = before %d after %d, want 5/2", f.AcceptsBefore, f.AcceptsAfter)
	}
	if h := a.Faults[1]; h.AcceptsBefore != 0 || h.AcceptsAfter != 0 {
		t.Fatalf("quiet fault shows accepts: %+v", h)
	}
	out := a.Summary()
	if !strings.Contains(out, "faults: 2") || !strings.Contains(out, "crash(7)") {
		t.Fatalf("summary missing fault section:\n%s", out)
	}
}

// TestSummaryOrdersMessagesNumerically pins the one message order: origin
// then sequence number, as numbers, so 0/2 comes before 0/10.
func TestSummaryOrdersMessagesNumerically(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	for _, msg := range []string{"0/10", "1/1", "0/2", "0/1"} {
		w.Emit(Event{T: At(time.Second), Node: 0, Type: TypeInject, Msg: msg})
	}
	a, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(a.Summary(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.Contains(f[0], "/") {
			rows = append(rows, f[0])
		}
	}
	if got, want := strings.Join(rows, " "), "0/1 0/2 0/10 1/1"; got != want {
		t.Fatalf("summary rows = %s, want %s", got, want)
	}
}

// TestSummaryTableListsOnlyInjectedMessages pins the table's filter: a
// message that reached the air without an inject event (flooder or forger
// spam) has a lineage but no row and no share of the "messages:" count.
func TestSummaryTableListsOnlyInjectedMessages(t *testing.T) {
	in := sampleTrace(t)
	var b strings.Builder
	w := NewWriter(&b)
	w.Emit(Event{T: At(time.Second), Node: 9, Type: TypeTx, Kind: "data", Msg: "9/7", Frame: 40})
	w.Emit(Event{T: At(time.Second), Node: 1, Type: TypeRx, Kind: "data", Msg: "9/7", Frame: 40})
	w.Emit(Event{T: At(time.Second), Node: 1, Type: TypeAccept, Msg: "9/7", Frame: 40})
	a, err := Read(strings.NewReader(in + b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if m := a.Message("9/7"); m == nil || m.Injected || m.Accepts != 1 {
		t.Fatalf("spam lineage = %+v", m)
	}
	if !strings.Contains(a.Report(), "msg 9/7 ") {
		t.Fatalf("lineage report lost the spam message:\n%s", a.Report())
	}
	out := a.Summary()
	if !strings.Contains(out, "messages: 1\n") || strings.Contains(out, "9/7") {
		t.Fatalf("summary table lists a message without an inject:\n%s", out)
	}
}
