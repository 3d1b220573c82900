// Package metrics collects and summarizes experiment measurements: per-kind
// transmission counts, delivery tracking per injected message, and latency
// distributions.
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"bbcast/internal/obsv"
	"bbcast/internal/wire"
)

// Collector accumulates raw events during a run. It implements
// obsv.Observer for the events it cares about (tx, inject, accept) and is
// single-threaded (simulation callbacks).
type Collector struct {
	obsv.Nop

	txByKind map[wire.Kind]uint64
	// msgs holds one record per message id seen injected or accepted, found
	// by index; dels holds every first (message, node) acceptance, in
	// arrival order. Both are flat, so a run of millions of accepts costs a
	// few slice growths, not a map per message.
	msgs     []message
	index    map[wire.MsgID]int32
	injected int
	dels     []delivery
	// highSeen records the accepts of nodes ≥ seenBits, which the message's
	// bitset has no bit for.
	highSeen map[nodeAccept]struct{}

	// Crash-recovery accounting: catch-up sync traffic and per-node
	// rejoin-to-first-accept latency (how long a wiped node stays dark).
	syncReqs      uint64
	syncServed    uint64
	syncApplied   uint64
	syncBytes     uint64
	syncAbandoned uint64
	rejoins       uint64
	rejoinAt      map[wire.NodeID]time.Duration
	rejoinLats    []time.Duration
}

// seenBits is how many node ids a message record's accept bitset covers.
const seenBits = 128

// message is one message id's record: its injection, if one was seen (a
// re-injection of the id overwrites it), and which nodes below seenBits have
// accepted it.
type message struct {
	id       wire.MsgID
	at       time.Duration
	origin   wire.NodeID
	injected bool
	seen     [seenBits / 64]uint64
}

type nodeAccept struct {
	msg  int32
	node wire.NodeID
}

// delivery is one node's first acceptance of a message, with the lineage of
// the frame that completed it.
type delivery struct {
	at        time.Duration
	msg       int32 // index into msgs
	node      wire.NodeID
	hops      uint32
	recovered bool
}

var _ obsv.Observer = (*Collector)(nil)

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		txByKind: make(map[wire.Kind]uint64),
		index:    make(map[wire.MsgID]int32),
		highSeen: make(map[nodeAccept]struct{}),
		rejoinAt: make(map[wire.NodeID]time.Duration),
	}
}

// OnPacketTx records a frame put on the air.
func (c *Collector) OnPacketTx(_ time.Duration, _ wire.NodeID, kind wire.Kind, _ wire.MsgID, _ wire.Meta) {
	c.txByKind[kind]++
}

// record returns the index of id's record, adding an empty one if need be.
func (c *Collector) record(id wire.MsgID) int32 {
	i, ok := c.index[id]
	if !ok {
		i = int32(len(c.msgs))
		c.index[id] = i
		c.msgs = append(c.msgs, message{id: id})
	}
	return i
}

// OnInject records the origination of message id at node.
func (c *Collector) OnInject(at time.Duration, node wire.NodeID, id wire.MsgID) {
	m := &c.msgs[c.record(id)]
	if !m.injected {
		c.injected++
	}
	m.at, m.origin, m.injected = at, node, true
}

// OnAccept records that node accepted message id at the given time, along
// with the accepting frame's hop count and recovery attribution. Repeat
// accepts for the same (node, id) are ignored.
func (c *Collector) OnAccept(at time.Duration, node wire.NodeID, id wire.MsgID, _ []byte, meta wire.Meta) {
	// Rejoin-to-first-accept: measured before the (node, id) dedup below,
	// because a wiped node's first post-rejoin accept may legitimately be a
	// re-delivery of a message it held before the crash.
	if ra, ok := c.rejoinAt[node]; ok && at >= ra {
		c.rejoinLats = append(c.rejoinLats, at-ra)
		delete(c.rejoinAt, node)
	}
	i := c.record(id)
	if node < seenBits {
		word, bit := &c.msgs[i].seen[node/64], uint64(1)<<(node%64)
		if *word&bit != 0 {
			return
		}
		*word |= bit
	} else {
		k := nodeAccept{msg: i, node: node}
		if _, ok := c.highSeen[k]; ok {
			return
		}
		c.highSeen[k] = struct{}{}
	}
	c.dels = append(c.dels, delivery{at: at, msg: i, node: node, hops: meta.Hops, recovered: meta.Recovered})
}

// OnSync accumulates catch-up sync traffic counters.
func (c *Collector) OnSync(_ time.Duration, _, _ wire.NodeID, event obsv.SyncEvent, entries, bytes int) {
	switch event {
	case obsv.SyncReqSent:
		c.syncReqs++
	case obsv.SyncServed:
		c.syncServed += uint64(entries)
		c.syncBytes += uint64(bytes)
	case obsv.SyncApplied:
		c.syncApplied += uint64(entries)
	case obsv.SyncAbandoned:
		c.syncAbandoned++
	}
}

// OnRejoin opens a rejoin-latency measurement for node: the next accept at
// this node closes it.
func (c *Collector) OnRejoin(at time.Duration, node wire.NodeID, _ int) {
	c.rejoins++
	c.rejoinAt[node] = at
}

// Injected reports the number of originated messages.
func (c *Collector) Injected() int { return c.injected }

// Results summarizes a run.
type Results struct {
	Protocol string
	N        int
	Injected int

	// DeliveryRatio is the mean, over injected messages, of the fraction of
	// eligible receivers that accepted the message.
	DeliveryRatio float64

	LatMean time.Duration
	LatP50  time.Duration
	LatP95  time.Duration
	LatP99  time.Duration
	LatMax  time.Duration

	TotalTx    uint64
	TxByKind   map[wire.Kind]uint64
	BytesOnAir uint64
	Collisions uint64

	// TxPerMessage is TotalTx divided by the number of injected messages.
	TxPerMessage float64
	// OverlaySize is the number of overlay-active nodes at the end of the
	// run (zero for protocols without an overlay).
	OverlaySize int

	// Lineage summary over remote deliveries (the originator's own excluded).
	// Hop statistics cover deliveries whose accepting frame carried a hop
	// count (always, under simulation).
	HopMean float64
	HopP50  float64
	HopP95  float64
	HopMax  float64
	// RemoteDeliveries counts deliveries at nodes other than the originator.
	// RecoveryDeliveries counts those whose payload travelled through gossip
	// recovery at any hop; RecoveryShare is their fraction of all remote
	// deliveries (the rest arrived purely on the data path).
	RemoteDeliveries   uint64
	RecoveryDeliveries uint64
	RecoveryShare      float64

	// Crash-recovery summary. Rejoins counts amnesiac rejoins; the rejoin
	// latencies measure rejoin-to-first-accept per rejoin that saw a later
	// accept. Sync counters quantify the catch-up traffic: requests sent,
	// entries served/applied, on-air bytes of served batches, and rejoiners
	// that gave up.
	Rejoins            uint64
	RejoinLatMean      time.Duration
	RejoinLatMax       time.Duration
	SyncReqs           uint64
	SyncEntriesServed  uint64
	SyncEntriesApplied uint64
	SyncBytes          uint64
	SyncAbandoned      uint64
}

// means lists, by type, every field that averaging replicates reduces to a
// per-replicate mean, once, so Add and Div cannot skip one. N and
// RejoinLatMax are the two numeric fields that are not means.
func (r *Results) means() ([]*float64, []*time.Duration, []*uint64, []*int) {
	return []*float64{
			&r.DeliveryRatio, &r.TxPerMessage, &r.RecoveryShare,
			&r.HopMean, &r.HopP50, &r.HopP95, &r.HopMax,
		}, []*time.Duration{
			&r.LatMean, &r.LatP50, &r.LatP95, &r.LatP99, &r.LatMax, &r.RejoinLatMean,
		}, []*uint64{
			&r.TotalTx, &r.BytesOnAir, &r.Collisions, &r.RemoteDeliveries, &r.RecoveryDeliveries,
			&r.Rejoins, &r.SyncReqs, &r.SyncEntriesServed, &r.SyncEntriesApplied, &r.SyncBytes, &r.SyncAbandoned,
		}, []*int{
			&r.Injected, &r.OverlaySize,
		}
}

type number interface {
	int | uint64 | float64 | time.Duration
}

func addAll[T number](dst, src []*T) {
	for i, d := range dst {
		*d += *src[i]
	}
}

func divAll[T number](dst []*T, n T) {
	for _, d := range dst {
		*d /= n
	}
}

// Add accumulates another replicate of the same scenario into r: sums of
// everything that Div turns into a mean, per-kind counts included, and the
// larger of the two worst rejoin latencies. r must own its TxByKind map.
func (r *Results) Add(o Results) {
	f, d, u, i := r.means()
	of, od, ou, oi := o.means()
	addAll(f, of)
	addAll(d, od)
	addAll(u, ou)
	addAll(i, oi)
	for k, v := range o.TxByKind {
		r.TxByKind[k] += v
	}
	r.RejoinLatMax = max(r.RejoinLatMax, o.RejoinLatMax)
}

// Div turns the sums of n accumulated replicates into their means.
func (r *Results) Div(n int) {
	f, d, u, i := r.means()
	divAll(f, float64(n))
	divAll(d, time.Duration(n))
	divAll(u, uint64(n))
	divAll(i, n)
	for k := range r.TxByKind {
		r.TxByKind[k] /= uint64(n)
	}
}

// Summarize computes results. receivers maps each message's eligible
// receiver count (correct nodes other than the originator); usually this is
// constant, so a single value is passed.
func (c *Collector) Summarize(protocol string, n int, eligible func(origin wire.NodeID) int) Results {
	r := Results{
		Protocol: protocol,
		N:        n,
		Injected: c.injected,
		TxByKind: make(map[wire.Kind]uint64, len(c.txByKind)),
	}
	for k, v := range c.txByKind {
		r.TxByKind[k] = v
		r.TotalTx += v
	}
	if r.Injected > 0 {
		r.TxPerMessage = float64(r.TotalTx) / float64(r.Injected)
	}

	// want is each injected message's eligible receiver count, -1 for a
	// message never injected; got counts its remote deliveries.
	want := make([]int, len(c.msgs))
	got := make([]int, len(c.msgs))
	lats := make([]time.Duration, 0, len(c.dels))
	hops := make([]float64, 0, len(c.dels))
	order := make([]int32, 0, c.injected)
	for i := range c.msgs {
		want[i] = -1
		if c.msgs[i].injected {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return c.msgs[a].id.Compare(c.msgs[b].id) })
	for _, i := range order {
		want[i] = eligible(c.msgs[i].origin)
	}
	var remote uint64
	for _, d := range c.dels {
		if want[d.msg] <= 0 || d.node == c.msgs[d.msg].origin {
			continue
		}
		got[d.msg]++
		lats = append(lats, d.at-c.msgs[d.msg].at)
		remote++
		if d.hops > 0 {
			hops = append(hops, float64(d.hops))
		}
		if d.recovered {
			r.RecoveryDeliveries++
		}
	}
	// The ratios are summed in id order, so the float sum does not depend on
	// the order accepts arrived in.
	var ratioSum float64
	for _, i := range order {
		if want[i] <= 0 {
			ratioSum += 1
			continue
		}
		ratioSum += float64(got[i]) / float64(want[i])
	}
	if r.Injected > 0 {
		r.DeliveryRatio = ratioSum / float64(r.Injected)
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum time.Duration
		for _, l := range lats {
			sum += l
		}
		r.LatMean = sum / time.Duration(len(lats))
		r.LatP50 = obsv.Quantile(lats, 0.50)
		r.LatP95 = obsv.Quantile(lats, 0.95)
		r.LatP99 = obsv.Quantile(lats, 0.99)
		r.LatMax = lats[len(lats)-1]
	}
	if len(hops) > 0 {
		sort.Float64s(hops)
		var sum float64
		for _, h := range hops {
			sum += h
		}
		r.HopMean = sum / float64(len(hops))
		r.HopP50 = obsv.Quantile(hops, 0.50)
		r.HopP95 = obsv.Quantile(hops, 0.95)
		r.HopMax = hops[len(hops)-1]
	}
	r.RemoteDeliveries = remote
	if remote > 0 {
		r.RecoveryShare = float64(r.RecoveryDeliveries) / float64(remote)
	}
	r.Rejoins = c.rejoins
	r.SyncReqs = c.syncReqs
	r.SyncEntriesServed = c.syncServed
	r.SyncEntriesApplied = c.syncApplied
	r.SyncBytes = c.syncBytes
	r.SyncAbandoned = c.syncAbandoned
	if len(c.rejoinLats) > 0 {
		var sum time.Duration
		max := c.rejoinLats[0]
		for _, l := range c.rejoinLats {
			sum += l
			if l > max {
				max = l
			}
		}
		r.RejoinLatMean = sum / time.Duration(len(c.rejoinLats))
		r.RejoinLatMax = max
	}
	return r
}

// Bucket is one time slice of a latency timeline.
type Bucket struct {
	Start time.Duration // bucket start (injection time)
	Count int           // delivery samples whose message was injected in the bucket
	Mean  time.Duration
	P95   time.Duration
}

// Timeline buckets delivery latencies by message injection time, showing how
// dissemination speed evolves over a run (e.g. the overlay fast path
// degrading under attack and healing as failure detectors evict offenders).
func (c *Collector) Timeline(bucket time.Duration) []Bucket {
	if bucket <= 0 || c.injected == 0 {
		return nil
	}
	maxIdx := 0
	for _, m := range c.msgs {
		if m.injected {
			maxIdx = max(maxIdx, int(m.at/bucket))
		}
	}
	byBucket := make(map[int][]time.Duration)
	for _, d := range c.dels {
		m := &c.msgs[d.msg]
		if !m.injected || d.node == m.origin {
			continue
		}
		idx := int(m.at / bucket)
		byBucket[idx] = append(byBucket[idx], d.at-m.at)
	}
	out := make([]Bucket, 0, maxIdx+1)
	for i := 0; i <= maxIdx; i++ {
		lats := byBucket[i]
		b := Bucket{Start: time.Duration(i) * bucket, Count: len(lats)}
		if len(lats) > 0 {
			sort.Slice(lats, func(x, y int) bool { return lats[x] < lats[y] })
			var sum time.Duration
			for _, l := range lats {
				sum += l
			}
			b.Mean = sum / time.Duration(len(lats))
			b.P95 = obsv.Quantile(lats, 0.95)
		}
		out = append(out, b)
	}
	return out
}

// String renders a one-line summary.
func (r Results) String() string {
	return fmt.Sprintf("%-10s n=%-4d msgs=%-4d delivery=%.3f tx/msg=%-8.1f lat(mean=%s p95=%s) collisions=%d overlay=%d",
		r.Protocol, r.N, r.Injected, r.DeliveryRatio, r.TxPerMessage,
		r.LatMean.Round(time.Millisecond), r.LatP95.Round(time.Millisecond),
		r.Collisions, r.OverlaySize)
}

// KindBreakdown renders the per-kind transmission counts, sorted by kind.
func (r Results) KindBreakdown() string {
	kinds := make([]wire.Kind, 0, len(r.TxByKind))
	for k := range r.TxByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, r.TxByKind[k]))
	}
	return strings.Join(parts, " ")
}
