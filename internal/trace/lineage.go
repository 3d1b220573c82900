package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"bbcast/internal/wire"
)

// MsgLineage is one message's dissemination DAG and phase breakdown,
// reconstructed from frame ids and parent links on tx/rx/accept/suppress
// events. Everything is ordered deterministically (frames by frame id,
// nodes by id), never by event arrival order.
type MsgLineage struct {
	Msg    string
	Origin wire.NodeID
	// Injected marks a message with an inject event: the workload's, not
	// spam that reached the air some other way. InjectedAt is the absolute
	// injection time; all phase fields below are relative to it.
	Injected   bool
	InjectedAt time.Duration

	// FirstRelay is the delay until the first data transmission by a node
	// other than the origin (zero when nothing was ever relayed).
	FirstRelay time.Duration
	// T50 and T95 are the delays until half / 95% of the final acceptance
	// count was reached; Last is the final acceptance's delay.
	T50, T95, Last time.Duration

	// Accepts counts accepting nodes (the origin's own delivery included).
	Accepts int
	// DataPath and Recovered attribute each remote delivery: Recovered
	// deliveries travelled through gossip recovery at some hop, DataPath
	// deliveries arrived purely on the relay data path.
	DataPath, Recovered int
	// Suppressed counts redundant data frames that receivers declined to
	// forward — the protocol's duplicate-suppression work for this message.
	Suppressed int

	// HopDist histograms remote deliveries by the accepting frame's hop
	// count; HopP50 and HopMax summarize it.
	HopDist map[uint32]int
	HopP50  uint32
	HopMax  uint32

	// Frames is the dissemination DAG: every data-frame transmission of this
	// message, sorted by frame id. Parent links point at the frame each
	// transmission was forwarded from (zero for origin sends).
	Frames []*FrameNode

	// Losses localizes every node that never delivered the message.
	Losses []LossSite

	frameByID map[uint64]*FrameNode
	frameRx   map[uint64]rxTally
	acceptBy  map[wire.NodeID]acceptRec
	dataRxBy  map[wire.NodeID]int
	reqTxBy   map[wire.NodeID][]time.Duration
	// lastHolder transmitted the payload last, at lastHolderAt.
	lastHolder   wire.NodeID
	lastHolderAt time.Duration
}

// FrameNode is one data-frame transmission in a message's dissemination DAG.
type FrameNode struct {
	Frame  uint64
	Parent uint64
	Node   wire.NodeID
	At     time.Duration
	Cause  string
	Hops   uint32
	Rec    bool
	// RxCount is how many receivers the frame reached; AcceptCount is how
	// many deliveries this exact frame completed.
	RxCount     int
	AcceptCount int
}

// LossSite explains one node that never delivered a message: what it heard,
// and the last node observed transmitting the payload (the point past which
// dissemination toward this node died).
type LossSite struct {
	Node wire.NodeID
	// DataRx counts data frames of the message the node received without
	// delivering (signature rejection or Byzantine payload); Requests counts
	// recovery requests the node sent for it.
	DataRx   int
	Requests int
	// LastHolder / LastHolderAt identify the message's final transmitter in
	// the whole trace — the closest surviving copy the node never got.
	LastHolder   wire.NodeID
	LastHolderAt time.Duration
}

type acceptRec struct {
	at    time.Duration
	frame uint64
	hops  uint32
	rec   bool
}

// rxTally is what the data receptions of one frame id add up to.
type rxTally struct {
	count int
	last  time.Duration
}

// rank is the index of the pct-th percentile of n sorted values: the one
// rule behind every t50, t95 and hop p50 a digest reports.
func rank(n, pct int) int { return (n - 1) * pct / 100 }

// finish derives the per-message summaries once all events are in.
func (m *MsgLineage) finish(universe map[wire.NodeID]bool) {
	sort.Slice(m.Frames, func(i, j int) bool {
		a, b := m.Frames[i], m.Frames[j]
		if a.Frame != b.Frame {
			return a.Frame < b.Frame
		}
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Node < b.Node
	})
	// Receiver and delivery counts per frame.
	for frame, rx := range m.frameRx {
		if fn := m.frameByID[frame]; fn != nil {
			fn.RxCount = rx.count
		}
	}
	for _, acc := range m.acceptBy {
		if fn := m.frameByID[acc.frame]; fn != nil {
			fn.AcceptCount++
		}
	}

	// Phase breakdown: t50/t95 are against the final acceptance count.
	var times []time.Duration
	var hops []uint32
	for node, acc := range m.acceptBy {
		times = append(times, acc.at)
		if node == m.Origin {
			continue
		}
		if acc.rec {
			m.Recovered++
		} else {
			m.DataPath++
		}
		if acc.hops > 0 {
			m.HopDist[acc.hops]++
			hops = append(hops, acc.hops)
		}
	}
	m.Accepts = len(times)
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	if len(times) > 0 {
		m.T50 = times[rank(len(times), 50)] - m.InjectedAt
		m.T95 = times[rank(len(times), 95)] - m.InjectedAt
		m.Last = times[len(times)-1] - m.InjectedAt
	}
	// m.Frames is frame-id ordered (transmission order under the simulator),
	// but scan all frames for the earliest relay to stay order-independent.
	for _, fn := range m.Frames {
		if fn.Node != m.Origin && (m.FirstRelay == 0 || fn.At-m.InjectedAt < m.FirstRelay) {
			m.FirstRelay = fn.At - m.InjectedAt
		}
	}
	sort.Slice(hops, func(i, j int) bool { return hops[i] < hops[j] })
	if len(hops) > 0 {
		m.HopP50 = hops[rank(len(hops), 50)]
		m.HopMax = hops[len(hops)-1]
	}

	// Loss-site localization: the last transmitter of the payload is the
	// closest copy every non-deliverer missed.
	for _, fn := range m.Frames {
		if fn.At >= m.lastHolderAt {
			m.lastHolder, m.lastHolderAt = fn.Node, fn.At
		}
	}
	var missing []wire.NodeID
	for node := range universe {
		if _, ok := m.acceptBy[node]; !ok {
			missing = append(missing, node)
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	for _, node := range missing {
		m.Losses = append(m.Losses, LossSite{
			Node:         node,
			DataRx:       m.dataRxBy[node],
			Requests:     len(m.reqTxBy[node]),
			LastHolder:   m.lastHolder,
			LastHolderAt: m.lastHolderAt,
		})
	}
}

// msgLess orders "origin/seq" message ids numerically, falling back to
// string order for ids that do not parse.
func msgLess(a, b string) bool {
	ao, as, aok := parseMsg(a)
	bo, bs, bok := parseMsg(b)
	if aok && bok {
		if ao != bo {
			return ao < bo
		}
		return as < bs
	}
	return a < b
}

func parseMsg(s string) (origin, seq uint64, ok bool) {
	o, rest, found := strings.Cut(s, "/")
	if !found {
		return 0, 0, false
	}
	origin, err1 := strconv.ParseUint(o, 10, 64)
	seq, err2 := strconv.ParseUint(rest, 10, 64)
	return origin, seq, err1 == nil && err2 == nil
}

// Message returns the lineage for one message id, or nil.
func (d *Digest) Message(msg string) *MsgLineage {
	return d.byMsg[msg]
}

// Report renders the lineage of every message as text.
func (d *Digest) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lineage: %d messages across %d nodes\n", len(d.Messages), d.Nodes)
	for _, m := range d.Messages {
		fmt.Fprintf(&b, "msg %s origin=%d injected=%s\n",
			m.Msg, m.Origin, m.InjectedAt.Round(time.Millisecond))
		fmt.Fprintf(&b, "  phases: first-relay=%s t50=%s t95=%s last=%s\n",
			m.FirstRelay.Round(time.Millisecond), m.T50.Round(time.Millisecond),
			m.T95.Round(time.Millisecond), m.Last.Round(time.Millisecond))
		fmt.Fprintf(&b, "  coverage: %d/%d accepted", m.Accepts, d.Nodes)
		if never := d.Nodes - m.Accepts; never > 0 {
			fmt.Fprintf(&b, " (%d never)", never)
		}
		b.WriteByte('\n')
		remote := m.DataPath + m.Recovered
		share := 0.0
		if remote > 0 {
			share = float64(m.Recovered) / float64(remote)
		}
		fmt.Fprintf(&b, "  paths: data=%d recovery=%d (share %.2f) suppressed=%d\n",
			m.DataPath, m.Recovered, share, m.Suppressed)
		if len(m.HopDist) > 0 {
			fmt.Fprintf(&b, "  hops: p50=%d max=%d dist", m.HopP50, m.HopMax)
			hs := make([]uint32, 0, len(m.HopDist))
			for h := range m.HopDist {
				hs = append(hs, h)
			}
			sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
			for _, h := range hs {
				fmt.Fprintf(&b, " %d:%d", h, m.HopDist[h])
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "  frames: %d data transmissions\n", len(m.Frames))
		for _, ls := range m.Losses {
			fmt.Fprintf(&b, "  loss: node %d never delivered (data-rx=%d requests=%d, last holder %d @ %s)\n",
				ls.Node, ls.DataRx, ls.Requests, ls.LastHolder,
				ls.LastHolderAt.Round(time.Millisecond))
		}
	}
	if d.Undecodable > 0 {
		fmt.Fprintf(&b, "warning: %d undecodable line(s), first at byte offset %d\n",
			d.Undecodable, d.FirstBadOffset)
	}
	return b.String()
}

// Explain reconstructs why node delivered msg late — or never. For delivered
// nodes it walks the accepting frame's parent chain back to the origin; for
// non-deliverers it reports what the node heard and where the closest copy
// died.
func (d *Digest) Explain(msg string, node wire.NodeID) string {
	m := d.byMsg[msg]
	if m == nil {
		return fmt.Sprintf("msg %s: not present in trace\n", msg)
	}
	var b strings.Builder
	acc, delivered := m.acceptBy[node]
	if !delivered {
		fmt.Fprintf(&b, "msg %s at node %d: never delivered\n", msg, node)
		if m.dataRxBy[node] == 0 && len(m.reqTxBy[node]) == 0 {
			fmt.Fprintf(&b, "  dead air: node saw no data frame and sent no recovery request\n")
		}
		if n := m.dataRxBy[node]; n > 0 {
			fmt.Fprintf(&b, "  received %d data frame(s) without delivering (rejected payload or signature)\n", n)
		}
		if reqs := m.reqTxBy[node]; len(reqs) > 0 {
			fmt.Fprintf(&b, "  sent %d recovery request(s), first @ %s, last @ %s — never served\n",
				len(reqs), reqs[0].Round(time.Millisecond),
				reqs[len(reqs)-1].Round(time.Millisecond))
		}
		if len(m.Frames) > 0 {
			fmt.Fprintf(&b, "  last holder to transmit: node %d @ %s\n",
				m.lastHolder, m.lastHolderAt.Round(time.Millisecond))
		}
		return b.String()
	}

	delay := acc.at - m.InjectedAt
	fmt.Fprintf(&b, "msg %s at node %d: delivered @ %s (+%s after inject)\n",
		msg, node, acc.at.Round(time.Millisecond), delay.Round(time.Millisecond))
	verdict := "on the fast path"
	switch {
	case delay > m.T95:
		verdict = "late (beyond the message's t95)"
	case delay > m.T50:
		verdict = "after the median"
	}
	path := "data path"
	if acc.rec {
		path = "gossip recovery"
	}
	fmt.Fprintf(&b, "  %s, via %s, %d hop(s)\n", verdict, path, acc.hops)
	if reqs := m.reqTxBy[node]; len(reqs) > 0 {
		fmt.Fprintf(&b, "  node requested recovery %d time(s) before delivery\n", len(reqs))
	}
	// Walk the frame chain origin-ward. Parent links stop at 0 (origin send)
	// or at frames the trace never saw (live-transport rx has no frame id).
	var chain []*FrameNode
	for f := m.frameByID[acc.frame]; f != nil && len(chain) < 64; {
		chain = append(chain, f)
		if f.Parent == 0 {
			break
		}
		next := m.frameByID[f.Parent]
		if next == f {
			break
		}
		f = next
	}
	if len(chain) == 0 {
		fmt.Fprintf(&b, "  path: accepting frame not in trace (own origin, or live transport)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  path (delivery back to origin):\n")
	for _, f := range chain {
		cause := f.Cause
		if cause == "" {
			cause = "?"
		}
		fmt.Fprintf(&b, "    frame %d: node %d @ %s cause=%s hops=%d rec=%v\n",
			f.Frame, f.Node, f.At.Round(time.Millisecond), cause, f.Hops, f.Rec)
	}
	return b.String()
}

// chromeEvent is one Chrome trace-event record (about:tracing / Perfetto).
// Field order is fixed so serialization is deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace exports the lineage in Chrome trace-event JSON: one process
// per message, one thread per node, a slice per data frame (spanning tx to
// the frame's last reception), flow arrows along parent links, and instant
// events for deliveries. Load the output in about:tracing or Perfetto.
func (d *Digest) ChromeTrace(w io.Writer) error {
	usec := func(t time.Duration) float64 { return float64(t) / float64(time.Microsecond) }
	var evs []chromeEvent
	for pi, m := range d.Messages {
		pid := pi + 1
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": "msg " + m.Msg},
		})
		for _, fn := range m.Frames {
			cause := fn.Cause
			if cause == "" {
				cause = "data"
			}
			// The frame's last reception bounds its slice.
			dur := usec(m.frameRx[fn.Frame].last - fn.At)
			if dur < 1 {
				dur = 1
			}
			evs = append(evs, chromeEvent{
				Name: cause, Ph: "X", Ts: usec(fn.At), Dur: dur,
				Pid: pid, Tid: int64(fn.Node),
				Args: map[string]any{
					"frame": fn.Frame, "parent": fn.Parent,
					"hops": fn.Hops, "rec": fn.Rec, "rx": fn.RxCount,
				},
			})
			if fn.Parent != 0 {
				if parent := m.frameByID[fn.Parent]; parent != nil {
					evs = append(evs, chromeEvent{
						Name: "hop", Ph: "s", Ts: usec(parent.At),
						Pid: pid, Tid: int64(parent.Node), ID: fn.Frame,
					})
					evs = append(evs, chromeEvent{
						Name: "hop", Ph: "f", BP: "e", Ts: usec(fn.At),
						Pid: pid, Tid: int64(fn.Node), ID: fn.Frame,
					})
				}
			}
		}
		// Deliveries, node-ordered for determinism.
		accNodes := make([]wire.NodeID, 0, len(m.acceptBy))
		for node := range m.acceptBy {
			accNodes = append(accNodes, node)
		}
		sort.Slice(accNodes, func(i, j int) bool { return accNodes[i] < accNodes[j] })
		for _, node := range accNodes {
			acc := m.acceptBy[node]
			name := "accept"
			if acc.rec {
				name = "accept(recovered)"
			}
			evs = append(evs, chromeEvent{
				Name: name, Ph: "i", Ts: usec(acc.at), Pid: pid, Tid: int64(node),
				Args: map[string]any{"hops": acc.hops},
			})
		}
	}
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: evs}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
