// Package radio models the shared wireless medium: omni-directional
// transmission disks, airtime, propagation delay, distance-dependent fringe
// loss, background noise loss, half-duplex radios, and collisions between
// overlapping transmissions at a common receiver (§2 of the paper).
//
// The model is deliberately richer than the paper's formal unit-disk
// abstraction, matching the paper's remark (footnote 2) that the evaluation
// simulator modelled "real transmission range behavior including
// distortions, background noise, etc.".
package radio

import (
	"math"
	"slices"
	"time"

	"bbcast/internal/geo"
	"bbcast/internal/mobility"
	"bbcast/internal/sim"
	"bbcast/internal/wire"
)

// Config are the physical-layer parameters.
type Config struct {
	// Range is the nominal transmission range in metres.
	Range float64
	// Bitrate is the channel rate in bits/s (2 Mb/s matches the 802.11
	// generation the paper's SWANS evaluation simulated).
	Bitrate float64
	// PropDelay is the fixed per-hop propagation + processing latency.
	PropDelay time.Duration
	// FringeStart is the fraction of Range beyond which reception
	// probability decays linearly to zero at Range. 1 disables fringe loss
	// (pure unit disk).
	FringeStart float64
	// BaseLoss is the distance-independent background loss probability.
	BaseLoss float64
	// HalfDuplex, when set, makes a node deaf while it transmits.
	HalfDuplex bool
	// CaptureRatio enables the capture effect: when two frames overlap at a
	// receiver, the closer one survives if its distance is at most
	// CaptureRatio times the other's (e.g. 0.5 ≈ a 6 dB power advantage
	// under inverse-square attenuation). Zero disables capture: any overlap
	// corrupts both frames.
	CaptureRatio float64
	// PosUpdate is how often node positions are refreshed from the mobility
	// model into the spatial index.
	PosUpdate time.Duration
}

// DefaultConfig returns the physical parameters used by the experiments.
func DefaultConfig() Config {
	return Config{
		Range:       250,
		Bitrate:     2e6,
		PropDelay:   5 * time.Microsecond,
		FringeStart: 0.85,
		BaseLoss:    0.01,
		HalfDuplex:  true,
		PosUpdate:   100 * time.Millisecond,
	}
}

// Stats counts physical-layer events.
type Stats struct {
	Transmissions  uint64 // frames put on the air
	BytesOnAir     uint64
	Deliveries     uint64 // frames handed to a receiver (duplicates included)
	Collisions     uint64 // receptions lost to overlap
	FringeLosses   uint64 // receptions lost to distance/noise
	HalfDuplexDrop uint64 // receptions lost because receiver was transmitting
	BurstLosses    uint64 // receptions lost to a Gilbert–Elliott bad state
	AsymLosses     uint64 // receptions lost to asymmetric link degradation
	DupFrames      uint64 // extra deliveries injected by frame duplication
}

// counters lists every counter once, so Add and Div cannot skip one.
func (s *Stats) counters() []*uint64 {
	return []*uint64{
		&s.Transmissions, &s.BytesOnAir, &s.Deliveries, &s.Collisions, &s.FringeLosses,
		&s.HalfDuplexDrop, &s.BurstLosses, &s.AsymLosses, &s.DupFrames,
	}
}

// Add accumulates o into s, counter by counter.
func (s *Stats) Add(o Stats) {
	from := o.counters()
	for i, c := range s.counters() {
		*c += *from[i]
	}
}

// Div divides every counter by n (the mean of n accumulated snapshots).
func (s *Stats) Div(n uint64) {
	for _, c := range s.counters() {
		*c /= n
	}
}

// BurstConfig parameterises the per-link Gilbert–Elliott bursty-loss model:
// each ordered link is a two-state (good/bad) continuous-time Markov chain
// with mean dwell times MeanGood and MeanBad; receptions while the link is in
// the bad state drop with probability Loss. The zero value disables the model.
type BurstConfig struct {
	Loss     float64       // drop probability while in the bad state, in (0,1]
	MeanBad  time.Duration // mean dwell time of the bad state
	MeanGood time.Duration // mean dwell time of the good state
}

// Enabled reports whether the configuration describes an active burst model.
func (b BurstConfig) Enabled() bool {
	return b.Loss > 0 && b.MeanBad > 0 && b.MeanGood > 0
}

// geLink is the Gilbert–Elliott state of one ordered link.
type geLink struct {
	bad  bool
	last time.Duration // virtual time of the last state evolution
}

// reception is one in-flight frame at one receiver. Records are pooled on
// the medium and recycled when the frame's airtime ends.
type reception struct {
	dst        wire.NodeID
	start, end time.Duration
	dist       float64
	corrupted  bool
}

// txBatch groups every reception of one transmission. All receivers of a
// frame share the same arrival instant (PropDelay + airtime), so the batch
// completes in a single engine event instead of one per receiver; receptions
// resolve in ascending destination order, which is exactly the order the
// per-receiver events fired in before batching (they were scheduled with
// contiguous sequence numbers at an identical timestamp).
type txBatch struct {
	from wire.NodeID
	pkt  *wire.Packet
	recs []*reception
	// finish is the batch's completion event, built once per pooled record so
	// scheduling a transmission allocates no closure.
	finish func()
}

// interval is a closed transmit window, for half-duplex accounting.
type interval struct {
	start, end time.Duration
}

// Medium is the shared channel. It is single-threaded: all methods must be
// called from simulation callbacks (the sim engine's goroutine).
type Medium struct {
	eng   *sim.Engine
	model mobility.Model
	cfg   Config
	n     int

	grid *geo.Grid
	// Per-node state, indexed by NodeID (ids are dense 0..n-1).
	rx      []func(*wire.Packet)
	ongoing [][]*reception
	txBusy  [][]interval
	stats   Stats
	stopPos func()

	// down marks nodes whose radio is off the air (crashed): they neither
	// transmit nor receive. Installed by the fault-injection layer.
	down []bool
	// group is the partition group per node; nil means no partition. Frames
	// cross only between nodes of the same group.
	group []int
	// extraLoss is an additional per-reception loss probability in [0,1),
	// modelling a degraded radio environment (jamming, weather).
	extraLoss float64
	// degs are stacked degradation windows pushed by PushDegradation.
	// Overlapping windows compose: the effective loss probability is
	// 1 - Π(1-p_i) over the base extraLoss and every active window, so one
	// window ending never silently cancels another that is still active.
	degs      []degradation
	nextDegID uint64

	// Hostile-link models. All draws happen only when the corresponding
	// feature is active, so enabling none of them leaves the RNG stream —
	// and therefore every existing trace golden — untouched.
	burst      BurstConfig
	burstLinks map[uint64]*geLink // ordered link (from<<32|dst) → GE state; keyed access only
	jitter     time.Duration      // max extra delivery latency, uniform in [0,jitter)
	dupProb    float64            // probability of duplicating a successful reception
	asymLoss   float64            // severity of asymmetric per-link degradation

	// OnTransmit, if non-nil, observes every frame put on the air.
	OnTransmit func(from wire.NodeID, pkt *wire.Packet)

	// frameSeq numbers frames in transmission order: Broadcast stamps each
	// packet's Meta.Frame before OnTransmit fires, so lineage events can
	// reference a frame receivers will see under the same id (they are handed
	// the stamped packet itself). Transmission order is deterministic under
	// the simulation engine, so frame ids are reproducible across runs.
	frameSeq uint64

	scratch     []uint32
	freeRecs    []*reception
	freeBatches []*txBatch
}

// Stages of a frame's life reported to frameHook.
const (
	frameOnAir     = "broadcast"    // Broadcast stamped the frame; node is the sender
	frameDelivered = "delivered"    // a receiver's callback returned; node is that receiver
	frameBatchDone = "batch-finish" // every reception of the frame resolved; node is the sender
)

// frameHook is a test seam, set only through export_test.go: the frame
// immutability guard uses it to fingerprint every frame at Broadcast and
// re-check it after each receiver callback and at batch finish. It is nil
// outside tests.
var frameHook func(stage string, node wire.NodeID, pkt *wire.Packet)

// New builds a medium for n nodes moving per model.
func New(eng *sim.Engine, model mobility.Model, n int, cfg Config) *Medium {
	m := &Medium{
		eng:     eng,
		model:   model,
		cfg:     cfg,
		n:       n,
		grid:    geo.NewGrid(model.Area(), cfg.Range),
		rx:      make([]func(*wire.Packet), n),
		ongoing: make([][]*reception, n),
		txBusy:  make([][]interval, n),
	}
	for i := 0; i < n; i++ {
		m.grid.Insert(uint32(i), model.Pos(uint32(i), 0))
	}
	if cfg.PosUpdate > 0 {
		m.stopPos = eng.Every(cfg.PosUpdate, m.refreshPositions)
	}
	return m
}

// Close stops the medium's periodic position updates.
func (m *Medium) Close() {
	if m.stopPos != nil {
		m.stopPos()
		m.stopPos = nil
	}
}

func (m *Medium) refreshPositions() {
	now := m.eng.Now()
	for i := 0; i < m.n; i++ {
		m.grid.Move(uint32(i), m.model.Pos(uint32(i), now))
	}
}

// Attach registers the receive callback for node id. Every receiver of a
// transmission is handed the same *wire.Packet the sender broadcast: fn may
// retain the packet and anything it points to, but must never modify it —
// clone before editing (wire.Packet.Clone).
func (m *Medium) Attach(id wire.NodeID, fn func(*wire.Packet)) {
	if int(id) < len(m.rx) {
		m.rx[id] = fn
	}
}

// SetDown marks node id's radio as off the air (true) or restores it
// (false). A down node neither transmits nor receives; frames still in
// flight toward it when it goes down are lost.
func (m *Medium) SetDown(id wire.NodeID, down bool) {
	if m.down == nil {
		m.down = make([]bool, m.n)
	}
	if int(id) < len(m.down) {
		m.down[id] = down
	}
}

// IsDown reports whether node id's radio is off the air.
func (m *Medium) IsDown(id wire.NodeID) bool {
	return m.down != nil && int(id) < len(m.down) && m.down[id]
}

// SetPartition installs a reachability mask: frames cross only between nodes
// of the same group. Nodes not named in any group form one implicit extra
// group of their own. A nil or empty groups argument heals the partition.
func (m *Medium) SetPartition(groups [][]wire.NodeID) {
	if len(groups) == 0 {
		m.group = nil
		return
	}
	m.group = make([]int, m.n)
	for i := range m.group {
		m.group[i] = 0 // implicit group for unlisted nodes
	}
	for gi, g := range groups {
		for _, id := range g {
			if int(id) < m.n {
				m.group[id] = gi + 1
			}
		}
	}
}

// Heal removes any installed partition mask.
func (m *Medium) Heal() { m.group = nil }

// degradation is one active PushDegradation window.
type degradation struct {
	id uint64
	p  float64
}

// clampLoss clamps a loss probability to [0, 0.999].
func clampLoss(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p >= 1 {
		return 0.999
	}
	return p
}

// SetExtraLoss sets the base additional per-reception loss probability
// (clamped to [0,1)), modelling a degraded radio environment. Zero restores
// the nominal channel. Windowed degradations stack on top via
// PushDegradation.
func (m *Medium) SetExtraLoss(p float64) {
	m.extraLoss = clampLoss(p)
}

// PushDegradation adds an independent degradation source with per-reception
// loss probability p and returns a pop function that removes exactly that
// source. Active sources compose as independent drop chances
// (1 - Π(1-p_i)), so overlapping degrade-radio windows no longer clobber
// each other the way last-writer-wins SetExtraLoss calls did. Pop is
// idempotent.
func (m *Medium) PushDegradation(p float64) (pop func()) {
	id := m.nextDegID
	m.nextDegID++
	m.degs = append(m.degs, degradation{id: id, p: clampLoss(p)})
	return func() {
		for i, d := range m.degs {
			if d.id == id {
				m.degs = append(m.degs[:i], m.degs[i+1:]...)
				return
			}
		}
	}
}

// ExtraLoss reports the effective additional loss probability: the base
// SetExtraLoss value composed with every active PushDegradation window.
func (m *Medium) ExtraLoss() float64 {
	keep := 1 - m.extraLoss
	for _, d := range m.degs {
		keep *= 1 - d.p
	}
	return 1 - keep
}

// SetBurst installs (or, with a zero config, removes) the per-link
// Gilbert–Elliott bursty-loss model. Installing a config resets all link
// states; links re-enter the chain at its stationary distribution on first
// use.
func (m *Medium) SetBurst(cfg BurstConfig) {
	m.burst = cfg
	if cfg.Enabled() {
		m.burstLinks = make(map[uint64]*geLink)
	} else {
		m.burstLinks = nil
	}
}

// Burst reports the active bursty-loss configuration.
func (m *Medium) Burst() BurstConfig { return m.burst }

// SetJitter sets the maximum extra delivery latency: each successful
// reception is deferred by a uniform draw in [0,d). Zero restores immediate
// delivery.
func (m *Medium) SetJitter(d time.Duration) {
	if d < 0 {
		d = 0
	}
	m.jitter = d
}

// Jitter reports the maximum extra delivery latency.
func (m *Medium) Jitter() time.Duration { return m.jitter }

// SetDuplication sets the probability (clamped to [0,1)) that a successful
// reception is delivered twice, modelling MAC-level retransmit duplicates.
func (m *Medium) SetDuplication(p float64) {
	m.dupProb = clampLoss(p)
}

// Duplication reports the active duplication probability.
func (m *Medium) Duplication() float64 { return m.dupProb }

// SetAsymLoss sets the severity of asymmetric link degradation: each ordered
// link (a,b) gets a static extra loss probability severity·h(a,b), where h
// is a per-link hash in [0,1) derived from the engine seed — so a→b and b→a
// degrade differently, deterministically. Zero disables.
func (m *Medium) SetAsymLoss(severity float64) {
	m.asymLoss = clampLoss(severity)
}

// AsymLoss reports the active asymmetric degradation severity.
func (m *Medium) AsymLoss() float64 { return m.asymLoss }

// linkKey packs an ordered link into a map key.
func linkKey(from, dst wire.NodeID) uint64 {
	return uint64(from)<<32 | uint64(dst)
}

// hash01 maps an ordered link to a uniform value in [0,1) determined only by
// the engine seed (SplitMix64 finalizer; no RNG stream is consumed).
func (m *Medium) hash01(from, dst wire.NodeID) float64 {
	z := uint64(m.eng.Seed()) ^ (linkKey(from, dst)*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// burstDrop evolves the ordered link's Gilbert–Elliott state to the current
// instant and reports whether this reception is lost to a bad-state burst.
// The two-state CTMC has closed-form transition probabilities, so the state
// advances lazily — one evolution per reception, however long the link was
// idle.
func (m *Medium) burstDrop(from, dst wire.NodeID) bool {
	rng := m.eng.Rand()
	lambda := 1 / m.burst.MeanGood.Seconds() // good → bad rate
	mu := 1 / m.burst.MeanBad.Seconds()      // bad → good rate
	piBad := lambda / (lambda + mu)
	key := linkKey(from, dst)
	st := m.burstLinks[key]
	now := m.eng.Now()
	if st == nil {
		// First use: enter the chain at its stationary distribution.
		st = &geLink{bad: rng.Float64() < piBad, last: now}
		m.burstLinks[key] = st
	} else if now > st.last {
		decay := math.Exp(-(lambda + mu) * (now - st.last).Seconds())
		pBad := piBad * (1 - decay)
		if st.bad {
			pBad = piBad + (1-piBad)*decay
		}
		st.bad = rng.Float64() < pBad
		st.last = now
	}
	return st.bad && rng.Float64() < m.burst.Loss
}

// linkUp reports whether frames can currently cross from a to b: both radios
// on the air and, under a partition, in the same group.
func (m *Medium) linkUp(a, b wire.NodeID) bool {
	if m.IsDown(a) || m.IsDown(b) {
		return false
	}
	if m.group != nil && int(a) < len(m.group) && int(b) < len(m.group) && m.group[a] != m.group[b] {
		return false
	}
	return true
}

// Stats returns a snapshot of the physical-layer counters.
func (m *Medium) Stats() Stats { return m.stats }

// Airtime returns the time a frame of the given size occupies the channel.
func (m *Medium) Airtime(size int) time.Duration {
	return time.Duration(float64(size*8) / m.cfg.Bitrate * float64(time.Second))
}

// Pos returns node id's current position.
func (m *Medium) Pos(id wire.NodeID) geo.Point {
	p, _ := m.grid.Pos(uint32(id))
	return p
}

// Neighbors returns the ids within transmission range of id, sorted. This is
// ground truth used by baselines and tests; the protocol itself discovers
// neighbours from traffic.
func (m *Medium) Neighbors(id wire.NodeID) []wire.NodeID {
	return m.neighborsWithin(id, m.cfg.Range)
}

// SolidNeighbors is Neighbors restricted to loss-free links: peers inside
// the fringe-decay boundary (FringeStart*Range). Links beyond it exist but
// drop receptions probabilistically, so they cannot carry any delivery
// guarantee. With FringeStart >= 1 this equals Neighbors.
func (m *Medium) SolidNeighbors(id wire.NodeID) []wire.NodeID {
	solid := m.cfg.Range
	if m.cfg.FringeStart < 1 {
		solid = m.cfg.FringeStart * m.cfg.Range
	}
	return m.neighborsWithin(id, solid)
}

func (m *Medium) neighborsWithin(id wire.NodeID, radius float64) []wire.NodeID {
	if m.IsDown(id) {
		return nil
	}
	p := m.Pos(id)
	m.scratch = m.grid.Near(p, radius, m.scratch[:0])
	out := make([]wire.NodeID, 0, len(m.scratch))
	for _, raw := range m.scratch {
		if wire.NodeID(raw) != id && m.linkUp(id, wire.NodeID(raw)) {
			out = append(out, wire.NodeID(raw))
		}
	}
	slices.Sort(out)
	return out
}

// Busy reports whether node id senses the channel busy now: it is itself
// transmitting, or at least one frame is currently arriving at it.
func (m *Medium) Busy(id wire.NodeID) bool {
	if int(id) >= m.n {
		return false
	}
	now := m.eng.Now()
	for _, iv := range m.txBusy[id] {
		if iv.start <= now && now < iv.end {
			return true
		}
	}
	for _, r := range m.ongoing[id] {
		if r.start <= now && now < r.end {
			return true
		}
	}
	return false
}

// allocRec takes a reception record from the pool.
func (m *Medium) allocRec() *reception {
	if n := len(m.freeRecs); n > 0 {
		rec := m.freeRecs[n-1]
		m.freeRecs = m.freeRecs[:n-1]
		return rec
	}
	return &reception{}
}

// allocBatch takes a batch record from the pool.
func (m *Medium) allocBatch() *txBatch {
	if n := len(m.freeBatches); n > 0 {
		b := m.freeBatches[n-1]
		m.freeBatches = m.freeBatches[:n-1]
		return b
	}
	b := &txBatch{}
	b.finish = func() { m.finishBatch(b) }
	return b
}

// Broadcast puts pkt on the air from node `from`. Delivery to each in-range
// node is scheduled after airtime + propagation delay, subject to collision,
// fringe-loss, noise and half-duplex rules. The caller must have set
// pkt.Sender; the medium alters only pkt.Meta.Frame (the lineage frame id),
// never any on-wire field.
//
// Ownership passes to the medium: pkt itself, not a copy, reaches every
// receiver (possibly later, under jitter), so the caller must not modify it,
// its byte slices, its Gossip entries or its State record afterwards, and
// must not broadcast the same *wire.Packet again — the second stamp of
// Meta.Frame would be visible to receivers still waiting for the first.
func (m *Medium) Broadcast(from wire.NodeID, pkt *wire.Packet) {
	if m.IsDown(from) {
		return // radio is off the air; the frame vanishes
	}
	now := m.eng.Now()
	size := pkt.AirSize()
	dur := m.Airtime(size)
	m.stats.Transmissions++
	m.stats.BytesOnAir += uint64(size)
	m.frameSeq++
	pkt.Meta.Frame = m.frameSeq
	if m.OnTransmit != nil {
		m.OnTransmit(from, pkt)
	}
	if frameHook != nil {
		frameHook(frameOnAir, from, pkt)
	}

	m.txBusy[from] = pruneIntervals(append(m.txBusy[from], interval{now, now + dur}), now)

	src := m.Pos(from)
	m.scratch = m.grid.Near(src, m.cfg.Range, m.scratch[:0])
	// Sort for deterministic RNG draw order.
	slices.Sort(m.scratch)

	rxStart := now + m.cfg.PropDelay
	rxEnd := rxStart + dur
	batch := m.allocBatch()
	batch.from = from
	batch.pkt = pkt

	for _, raw := range m.scratch {
		dst := wire.NodeID(raw)
		if dst == from || !m.linkUp(from, dst) {
			continue
		}
		rec := m.allocRec()
		rec.dst = dst
		rec.start = rxStart
		rec.end = rxEnd
		rec.dist = src.Dist(m.Pos(dst))
		rec.corrupted = false

		// Overlapping frames at a receiver corrupt each other — unless the
		// capture effect lets the markedly stronger (closer) one survive.
		for _, other := range m.ongoing[dst] {
			if other.start < rxEnd && rxStart < other.end {
				m.collide(rec, other)
			}
		}
		m.ongoing[dst] = append(m.ongoing[dst], rec)
		batch.recs = append(batch.recs, rec)
	}

	if len(batch.recs) == 0 {
		m.releaseBatch(batch)
		return
	}
	m.eng.At(rxEnd, batch.finish)
}

func (m *Medium) releaseBatch(b *txBatch) {
	b.pkt = nil
	b.recs = b.recs[:0]
	m.freeBatches = append(m.freeBatches, b)
}

// collide resolves an overlap between two receptions at one receiver.
func (m *Medium) collide(a, b *reception) {
	r := m.cfg.CaptureRatio
	switch {
	case r > 0 && a.dist <= r*b.dist:
		b.corrupted = true
	case r > 0 && b.dist <= r*a.dist:
		a.corrupted = true
	default:
		a.corrupted = true
		b.corrupted = true
	}
}

// finishBatch resolves every reception of one transmission, in ascending
// destination order (batch.recs was built from the sorted neighbour list).
func (m *Medium) finishBatch(b *txBatch) {
	for _, rec := range b.recs {
		m.finishReception(b.from, rec, b.pkt)
		m.freeRecs = append(m.freeRecs, rec)
	}
	if frameHook != nil {
		frameHook(frameBatchDone, b.from, b.pkt)
	}
	m.releaseBatch(b)
}

func (m *Medium) finishReception(from wire.NodeID, rec *reception, pkt *wire.Packet) {
	dst := rec.dst
	// Drop the reception record from the receiver's in-flight list.
	list := m.ongoing[dst]
	for i, r := range list {
		if r == rec {
			list[i] = list[len(list)-1]
			list[len(list)-1] = nil
			m.ongoing[dst] = list[:len(list)-1]
			break
		}
	}

	if rec.corrupted {
		m.stats.Collisions++
		return
	}
	if !m.linkUp(from, dst) {
		return // receiver crashed or a partition landed while the frame was in flight
	}
	if m.cfg.HalfDuplex && m.transmittedDuring(dst, rec.start, rec.end) {
		m.stats.HalfDuplexDrop++
		return
	}
	if !m.receives(rec.dist) {
		m.stats.FringeLosses++
		return
	}
	if m.burst.Enabled() && m.burstDrop(from, dst) {
		m.stats.BurstLosses++
		return
	}
	if m.asymLoss > 0 && m.eng.Rand().Float64() < m.asymLoss*m.hash01(from, dst) {
		m.stats.AsymLosses++
		return
	}
	fn := m.rx[dst]
	if fn == nil {
		return
	}
	m.deliver(dst, fn, pkt)
	if m.dupProb > 0 && m.eng.Rand().Float64() < m.dupProb {
		m.stats.DupFrames++
		m.deliver(dst, fn, pkt)
	}
}

// deliver hands a successful reception to the receiver — immediately on the
// nominal channel, or deferred by a deterministic uniform draw in [0,jitter)
// when latency jitter is active. Frames are immutable once broadcast, so both
// paths pass the transmitted packet itself; a receiver that goes down while
// the frame is deferred loses it.
func (m *Medium) deliver(dst wire.NodeID, fn func(*wire.Packet), pkt *wire.Packet) {
	if m.jitter <= 0 {
		m.handOver(dst, fn, pkt)
		return
	}
	d := time.Duration(m.eng.Rand().Int63n(int64(m.jitter)))
	m.eng.After(d, func() {
		if m.IsDown(dst) {
			return
		}
		m.handOver(dst, fn, pkt)
	})
}

// handOver runs the receiver's callback on the shared frame.
func (m *Medium) handOver(dst wire.NodeID, fn func(*wire.Packet), pkt *wire.Packet) {
	m.stats.Deliveries++
	fn(pkt)
	if frameHook != nil {
		frameHook(frameDelivered, dst, pkt)
	}
}

// receives draws the distance-dependent reception outcome.
func (m *Medium) receives(dist float64) bool {
	rng := m.eng.Rand()
	if el := m.ExtraLoss(); el > 0 && rng.Float64() < el {
		return false
	}
	if m.cfg.BaseLoss > 0 && rng.Float64() < m.cfg.BaseLoss {
		return false
	}
	fringe := m.cfg.FringeStart * m.cfg.Range
	if dist <= fringe || m.cfg.FringeStart >= 1 {
		return true
	}
	if dist >= m.cfg.Range {
		return false
	}
	// Linear decay from 1 at the fringe boundary to 0 at Range.
	p := 1 - (dist-fringe)/(m.cfg.Range-fringe)
	return rng.Float64() < p
}

func (m *Medium) transmittedDuring(id wire.NodeID, start, end time.Duration) bool {
	ivs := pruneIntervals(m.txBusy[id], start)
	m.txBusy[id] = ivs
	for _, iv := range ivs {
		if iv.start < end && start < iv.end {
			return true
		}
	}
	return false
}

// pruneIntervals drops intervals that ended before cutoff.
func pruneIntervals(ivs []interval, cutoff time.Duration) []interval {
	out := ivs[:0]
	for _, iv := range ivs {
		if iv.end >= cutoff {
			out = append(out, iv)
		}
	}
	return out
}
