package trace

// Tests for the analysis of the observability event types: receptions and
// per-kind reach (the loss estimator) and suspicion lifecycles.

import (
	"strings"
	"testing"
	"time"

	"bbcast/internal/wire"
)

func lossTrace(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	w := NewWriter(&b)
	// Two data tx reaching 2+1 receivers; two gossip tx reaching 4+4:
	// data reach 1.5, gossip reach 4 — data is being lost preferentially.
	w.Emit(Event{T: At(time.Second), Node: 0, Type: TypeTx, Kind: "data", Msg: "0/1"})
	w.Emit(Event{T: At(time.Second), Node: 1, Type: TypeRx, Kind: "data", Msg: "0/1"})
	w.Emit(Event{T: At(time.Second), Node: 2, Type: TypeRx, Kind: "data", Msg: "0/1"})
	w.Emit(Event{T: At(2 * time.Second), Node: 1, Type: TypeTx, Kind: "data", Msg: "0/1"})
	w.Emit(Event{T: At(2 * time.Second), Node: 3, Type: TypeRx, Kind: "data", Msg: "0/1"})
	for i := 0; i < 2; i++ {
		w.Emit(Event{T: At(3 * time.Second), Node: 0, Type: TypeTx, Kind: "gossip"})
		for n := 1; n <= 4; n++ {
			w.Emit(Event{T: At(3 * time.Second), Node: wire.NodeID(n), Type: TypeRx, Kind: "gossip"})
		}
	}
	// A mute suspicion held for 10s, one still standing, one trust raise.
	w.Emit(Event{T: At(5 * time.Second), Node: 1, Peer: 7, Type: TypeSuspect, Detail: "mute:raised"})
	w.Emit(Event{T: At(15 * time.Second), Node: 1, Peer: 7, Type: TypeSuspect, Detail: "mute:cleared"})
	w.Emit(Event{T: At(6 * time.Second), Node: 2, Peer: 8, Type: TypeSuspect, Detail: "mute:raised"})
	w.Emit(Event{T: At(7 * time.Second), Node: 3, Peer: 9, Type: TypeSuspect, Detail: "trust:raised"})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestAnalyzeReachEstimatesLoss(t *testing.T) {
	a, err := Read(strings.NewReader(lossTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	if a.RxByKind["data"] != 3 || a.RxByKind["gossip"] != 8 {
		t.Fatalf("rx = %v", a.RxByKind)
	}
	if a.Reach["data"] != 1.5 || a.Reach["gossip"] != 4 {
		t.Fatalf("reach = %v", a.Reach)
	}
	out := a.Summary()
	if !strings.Contains(out, "receptions: data=3 gossip=8") {
		t.Fatalf("summary missing receptions:\n%s", out)
	}
	// data reaches 1.5/4 of the best kind: a 62% shortfall flagged inline.
	if !strings.Contains(out, "data=1.50 (-62%)") {
		t.Fatalf("summary missing loss annotation:\n%s", out)
	}
}

func TestAnalyzeSuspicionLifecycles(t *testing.T) {
	a, err := Read(strings.NewReader(lossTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	mute := a.Suspicions["mute"]
	if mute.Raised != 2 || mute.Cleared != 1 || mute.Active != 1 {
		t.Fatalf("mute = %+v", mute)
	}
	if mute.MeanDuration != 10*time.Second {
		t.Fatalf("mute mean = %v, want 10s", mute.MeanDuration)
	}
	trust := a.Suspicions["trust"]
	if trust.Raised != 1 || trust.Cleared != 0 || trust.Active != 1 {
		t.Fatalf("trust = %+v", trust)
	}
	out := a.Summary()
	if !strings.Contains(out, "suspicions:") || !strings.Contains(out, "mean-held=10s") {
		t.Fatalf("summary missing suspicion block:\n%s", out)
	}
}

func TestAnalyzeDuplicateRaiseKeepsFirstStart(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.Emit(Event{T: At(1 * time.Second), Node: 1, Peer: 7, Type: TypeSuspect, Detail: "mute:raised"})
	w.Emit(Event{T: At(5 * time.Second), Node: 1, Peer: 7, Type: TypeSuspect, Detail: "mute:raised"})
	w.Emit(Event{T: At(11 * time.Second), Node: 1, Peer: 7, Type: TypeSuspect, Detail: "mute:cleared"})
	w.Emit(Event{T: At(12 * time.Second), Node: 1, Peer: 7, Type: TypeSuspect, Detail: "mute:cleared"})
	a, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	mute := a.Suspicions["mute"]
	if mute.Raised != 2 || mute.Cleared != 2 || mute.Active != 0 {
		t.Fatalf("mute = %+v", mute)
	}
	// The refresh at 5s must not restart the clock; the second clear has no
	// standing suspicion and contributes nothing.
	if mute.MeanDuration != 10*time.Second {
		t.Fatalf("mean = %v, want 10s from first raise", mute.MeanDuration)
	}
}

func TestParseSuspectDetail(t *testing.T) {
	cases := []struct {
		in       string
		detector string
		raised   bool
		ok       bool
	}{
		{"mute:raised", "mute", true, true},
		{"trust:cleared", "trust", false, true},
		{"raised", "", false, false},
		{":raised", "", false, false},
		{"mute:unknown", "", false, false},
		{"", "", false, false},
	}
	for _, c := range cases {
		d, raised, ok := parseSuspectDetail(c.in)
		if d != c.detector || raised != c.raised || ok != c.ok {
			t.Fatalf("parseSuspectDetail(%q) = %q/%v/%v, want %q/%v/%v",
				c.in, d, raised, ok, c.detector, c.raised, c.ok)
		}
	}
}
