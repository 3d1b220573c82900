package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"bbcast/internal/wire"
)

// FaultStat is one fault-plan event with the acceptance rate around it, so
// a delivery dip can be read off next to the fault that caused it.
type FaultStat struct {
	At   time.Duration
	Name string
	// AcceptsBefore and AcceptsAfter count application-level acceptances in
	// the faultWindow preceding and following the event.
	AcceptsBefore int
	AcceptsAfter  int
}

// faultWindow is the correlation window around each fault event.
const faultWindow = 10 * time.Second

// SuspicionStats aggregates one detector's suspicion lifecycles.
type SuspicionStats struct {
	// Raised and Cleared count transitions; Active is how many suspicions
	// were still standing when the trace ended.
	Raised  int
	Cleared int
	Active  int
	// MeanDuration is the mean raise-to-clear time over completed
	// lifecycles (zero when none completed).
	MeanDuration time.Duration

	// held is the total hold time of the done completed lifecycles.
	held time.Duration
	done int
}

// DecodeStats reports trace decoding health: how many lines decoded, how
// many could not, and where the first undecodable line starts.
type DecodeStats struct {
	Decoded     int
	Undecodable int
	// FirstBadOffset is the byte offset of the first undecodable line, or -1
	// when every line decoded.
	FirstBadOffset int64
}

// Digest is what one pass over a trace learns: the network-wide counters
// the summary prints, and the per-message lineage that the lineage report,
// Explain and the Chrome export render. Read builds it.
type Digest struct {
	DecodeStats
	TxByKind map[string]int
	// RxByKind counts frames delivered to protocols, per kind. One
	// transmission reaches many receivers, so RxByKind[k]/TxByKind[k] is the
	// mean receivers-per-transmission; see Reach.
	RxByKind map[string]int
	// Reach is RxByKind/TxByKind per kind. All kinds share one radio, so a
	// kind reaching fewer receivers per transmission than its peers is being
	// lost preferentially (larger frames collide and fade more) — the
	// per-kind asymmetry is a loss estimator without ground truth.
	Reach map[string]float64
	// RoleChanges counts committed role transitions per node.
	RoleChanges map[wire.NodeID]int
	// Suspicions aggregates suspicion lifecycles per detector
	// ("mute", "verbose", "trust").
	Suspicions map[string]SuspicionStats
	// Faults lists fault-plan events with accept counts around each.
	Faults []FaultStat

	// Messages holds one dissemination DAG per message any tx/rx/accept/
	// suppress/inject event names, ordered by numeric origin/seq, so the
	// rendered reports over a deterministic trace are byte-stable.
	Messages []*MsgLineage
	// Nodes is the number of distinct nodes observed anywhere in the trace
	// (the coverage denominator for loss-site localization).
	Nodes int

	byMsg       map[string]*MsgLineage
	nodes       map[wire.NodeID]bool
	acceptTimes []time.Duration
	suspStart   map[suspKey]time.Duration
}

type suspKey struct {
	node, peer wire.NodeID
	detector   string
}

var (
	kindData    = wire.KindData.String()
	kindRequest = wire.KindRequest.String()
	kindFind    = wire.KindFindMissing.String()
)

// Read digests a JSONL trace in one streaming pass; no more than one event is
// held at a time. Undecodable lines are counted, and the byte offset of the
// first one is kept, so callers can report a truncated or corrupt trace
// instead of silently producing an empty digest.
func Read(r io.Reader) (*Digest, error) {
	d := newDigest()
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var offset int64
	for scanner.Scan() {
		line := scanner.Bytes()
		lineStart := offset
		offset += int64(len(line)) + 1 // +1 for the newline the scanner strips
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			d.Undecodable++
			if d.FirstBadOffset < 0 {
				d.FirstBadOffset = lineStart
			}
			continue
		}
		d.Decoded++
		d.add(ev)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("trace: scan: %w", err)
	}
	d.finish()
	return d, nil
}

func newDigest() *Digest {
	return &Digest{
		DecodeStats: DecodeStats{FirstBadOffset: -1},
		TxByKind:    make(map[string]int),
		RxByKind:    make(map[string]int),
		Reach:       make(map[string]float64),
		RoleChanges: make(map[wire.NodeID]int),
		Suspicions:  make(map[string]SuspicionStats),
		byMsg:       make(map[string]*MsgLineage),
		nodes:       make(map[wire.NodeID]bool),
		suspStart:   make(map[suspKey]time.Duration),
	}
}

// add folds one decoded event into the counters and the lineage.
func (d *Digest) add(ev Event) {
	at := time.Duration(ev.T)
	switch ev.Type {
	case TypeInject, TypeTx, TypeRx, TypeAccept, TypeSuppress, TypeRole:
		d.nodes[ev.Node] = true
	}
	switch ev.Type {
	case TypeInject:
		if m := d.message(ev.Msg); m != nil {
			m.Origin, m.Injected, m.InjectedAt = ev.Node, true, at
		}
	case TypeTx:
		d.TxByKind[ev.Kind]++
		switch ev.Kind {
		case kindData:
			if m := d.message(ev.Msg); m != nil {
				fn := &FrameNode{
					Frame: ev.Frame, Parent: ev.Parent, Node: ev.Node,
					At: at, Cause: ev.Cause, Hops: ev.Hops, Rec: ev.Rec,
				}
				m.Frames = append(m.Frames, fn)
				if ev.Frame != 0 {
					m.frameByID[ev.Frame] = fn
				}
			}
		case kindRequest, kindFind:
			if m := d.message(ev.Msg); m != nil {
				m.reqTxBy[ev.Node] = append(m.reqTxBy[ev.Node], at)
			}
		}
	case TypeRx:
		d.RxByKind[ev.Kind]++
		if ev.Kind != kindData {
			break
		}
		if m := d.message(ev.Msg); m != nil {
			m.dataRxBy[ev.Node]++
			rx := m.frameRx[ev.Frame]
			rx.count++
			rx.last = max(rx.last, at)
			m.frameRx[ev.Frame] = rx
		}
	case TypeAccept:
		// Fault correlation counts every accept event; the lineage keeps
		// each node's first.
		d.acceptTimes = append(d.acceptTimes, at)
		if m := d.message(ev.Msg); m != nil {
			if _, dup := m.acceptBy[ev.Node]; !dup {
				m.acceptBy[ev.Node] = acceptRec{at: at, frame: ev.Frame, hops: ev.Hops, rec: ev.Rec}
			}
		}
	case TypeSuppress:
		if m := d.message(ev.Msg); m != nil {
			m.Suppressed++
		}
	case TypeRole:
		d.RoleChanges[ev.Node]++
	case TypeSuspect:
		detector, raised, ok := parseSuspectDetail(ev.Detail)
		if !ok {
			break
		}
		st := d.Suspicions[detector]
		key := suspKey{node: ev.Node, peer: ev.Peer, detector: detector}
		if raised {
			st.Raised++
			if _, dup := d.suspStart[key]; !dup {
				d.suspStart[key] = at
			}
		} else {
			st.Cleared++
			if start, active := d.suspStart[key]; active {
				st.held += at - start
				st.done++
				delete(d.suspStart, key)
			}
		}
		d.Suspicions[detector] = st
	case TypeFault:
		d.Faults = append(d.Faults, FaultStat{At: at, Name: ev.Detail})
	}
}

// message returns the lineage of msg, created on first mention, or nil for
// an event that names no message.
func (d *Digest) message(msg string) *MsgLineage {
	if msg == "" {
		return nil
	}
	m := d.byMsg[msg]
	if m == nil {
		m = &MsgLineage{
			Msg:       msg,
			HopDist:   make(map[uint32]int),
			frameByID: make(map[uint64]*FrameNode),
			frameRx:   make(map[uint64]rxTally),
			acceptBy:  make(map[wire.NodeID]acceptRec),
			dataRxBy:  make(map[wire.NodeID]int),
			reqTxBy:   make(map[wire.NodeID][]time.Duration),
		}
		d.byMsg[msg] = m
	}
	return m
}

// finish derives everything that needs the whole trace.
func (d *Digest) finish() {
	d.Nodes = len(d.nodes)
	for _, m := range d.byMsg { //bbvet:unordered finish touches only its own message, and the collected list is sorted below
		m.finish(d.nodes)
		d.Messages = append(d.Messages, m)
	}
	sort.Slice(d.Messages, func(i, j int) bool {
		return msgLess(d.Messages[i].Msg, d.Messages[j].Msg)
	})
	sort.Slice(d.acceptTimes, func(i, j int) bool { return d.acceptTimes[i] < d.acceptTimes[j] })
	countBetween := func(from, to time.Duration) int {
		lo := sort.Search(len(d.acceptTimes), func(i int) bool { return d.acceptTimes[i] >= from })
		hi := sort.Search(len(d.acceptTimes), func(i int) bool { return d.acceptTimes[i] >= to })
		return hi - lo
	}
	for i := range d.Faults {
		f := &d.Faults[i]
		f.AcceptsBefore = countBetween(f.At-faultWindow, f.At)
		f.AcceptsAfter = countBetween(f.At, f.At+faultWindow)
	}
	for kind, rx := range d.RxByKind {
		if tx := d.TxByKind[kind]; tx > 0 {
			d.Reach[kind] = float64(rx) / float64(tx)
		}
	}
	for key := range d.suspStart {
		st := d.Suspicions[key.detector]
		st.Active++
		d.Suspicions[key.detector] = st
	}
	for detector, st := range d.Suspicions {
		if st.done > 0 {
			st.MeanDuration = st.held / time.Duration(st.done)
			d.Suspicions[detector] = st
		}
	}
}

// sortedKeys returns a map's keys in order, so renderings are deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// parseSuspectDetail splits a suspect event's "<detector>:raised" /
// "<detector>:cleared" detail.
func parseSuspectDetail(detail string) (detector string, raised, ok bool) {
	detector, event, found := strings.Cut(detail, ":")
	if !found || detector == "" {
		return "", false, false
	}
	switch event {
	case "raised":
		return detector, true, true
	case "cleared":
		return detector, false, true
	default:
		return "", false, false
	}
}

// Summary renders the network-wide digest as text. Its message table lists
// only messages with an inject event (the workload); messages that reached
// the air without one, such as flooder and forger spam, appear in the
// lineage report alone.
func (d *Digest) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events: %d\n", d.Decoded)
	b.WriteString("transmissions:")
	for _, k := range sortedKeys(d.TxByKind) {
		fmt.Fprintf(&b, " %s=%d", k, d.TxByKind[k])
	}
	b.WriteByte('\n')
	if len(d.RxByKind) > 0 {
		rxKinds := sortedKeys(d.RxByKind)
		b.WriteString("receptions:")
		for _, k := range rxKinds {
			fmt.Fprintf(&b, " %s=%d", k, d.RxByKind[k])
		}
		b.WriteByte('\n')
		// Reach is mean receivers per transmission; the kind with the best
		// reach is the baseline, shortfalls estimate preferential loss.
		best := 0.0
		for _, r := range d.Reach {
			if r > best {
				best = r
			}
		}
		if best > 0 {
			b.WriteString("reach (rx/tx):")
			for _, k := range rxKinds {
				r, ok := d.Reach[k]
				if !ok {
					continue
				}
				fmt.Fprintf(&b, " %s=%.2f", k, r)
				if loss := 1 - r/best; loss > 0.005 {
					fmt.Fprintf(&b, " (-%.0f%%)", 100*loss)
				}
			}
			b.WriteByte('\n')
		}
	}
	var injected []*MsgLineage
	for _, m := range d.Messages {
		if m.Injected {
			injected = append(injected, m)
		}
	}
	fmt.Fprintf(&b, "messages: %d\n", len(injected))
	if len(injected) > 0 {
		fmt.Fprintf(&b, "%-10s %-10s %-8s %-12s %-12s %-12s\n",
			"msg", "inject", "accepts", "t50", "t95", "last")
		for _, m := range injected {
			fmt.Fprintf(&b, "%-10s %-10s %-8d %-12s %-12s %-12s\n",
				m.Msg, m.InjectedAt.Round(time.Millisecond), m.Accepts,
				m.T50.Round(time.Millisecond), m.T95.Round(time.Millisecond),
				m.Last.Round(time.Millisecond))
		}
	}
	churn := 0
	for _, c := range d.RoleChanges {
		churn += c
	}
	fmt.Fprintf(&b, "role changes: %d across %d nodes\n", churn, len(d.RoleChanges))
	if len(d.Suspicions) > 0 {
		b.WriteString("suspicions:\n")
		for _, det := range sortedKeys(d.Suspicions) {
			s := d.Suspicions[det]
			fmt.Fprintf(&b, "  %-8s raised=%-5d cleared=%-5d active=%-5d mean-held=%s\n",
				det, s.Raised, s.Cleared, s.Active, s.MeanDuration.Round(time.Millisecond))
		}
	}
	if len(d.Faults) > 0 {
		fmt.Fprintf(&b, "faults: %d (accepts ±%s around each)\n", len(d.Faults), faultWindow)
		for _, f := range d.Faults {
			fmt.Fprintf(&b, "  %-10s %-24s before=%-6d after=%d\n",
				f.At.Round(time.Millisecond), f.Name, f.AcceptsBefore, f.AcceptsAfter)
		}
	}
	return b.String()
}
