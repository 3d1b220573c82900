package core

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"time"

	"bbcast/internal/env"
	"bbcast/internal/fd"
	"bbcast/internal/obsv"
	"bbcast/internal/overlay"
	"bbcast/internal/persist"
	"bbcast/internal/sig"
	"bbcast/internal/wire"
)

// Deps are the host-provided dependencies of a Protocol.
type Deps struct {
	// ID is this node's identifier.
	ID wire.NodeID
	// Clock provides time and timers (simulated or real).
	Clock env.Clock
	// Send puts a packet on the air (one physical hop). The protocol sets
	// pkt.Sender. Hosts route this through their MAC/transport.
	//
	// A frame is immutable from the moment it is handed to Send: the
	// simulated medium passes this very *wire.Packet to every receiver, so
	// neither the protocol nor the host may afterwards write to the packet,
	// its byte slices, its Gossip entries or its State record, and no
	// *wire.Packet is passed to Send twice. A host that edits a frame on the
	// way out (an adversary behaviour) sends its own Clone.
	Send func(pkt *wire.Packet)
	// Scheme signs and verifies.
	Scheme sig.Scheme
	// Rand is this node's deterministic random stream.
	Rand *rand.Rand
	// Deliver is the application accept() upcall: called exactly once per
	// accepted message.
	Deliver func(origin wire.NodeID, id wire.MsgID, payload []byte)
	// Obs, if non-nil, observes protocol events (rx, accept, role changes,
	// suspicions, signature verifications, queue depths). Transmissions are
	// observed by the host at the transport layer, not here.
	Obs obsv.Observer
	// Store, if non-nil, is the durable-state layer (Config.Persist): the
	// protocol records its sequence counter, delivered digests and suspicion
	// transitions into it and restores them in New and Rejoin.
	Store *persist.Store
}

// Accept routes one application-level acceptance through the upcall and the
// observer — the single choke point used by every protocol implementation
// (the broadcast protocol and the comparison baselines). meta is the causal
// metadata of the frame that completed delivery (zero Hops and CauseOrigin
// for an originator's own acceptance).
func (d *Deps) Accept(id wire.MsgID, payload []byte, meta wire.Meta) {
	if d.Deliver != nil {
		d.Deliver(id.Origin, id, payload)
	}
	if d.Store != nil {
		digest := meta.Digest
		if digest == 0 {
			digest = wire.Digest(payload)
		}
		d.Store.RecordDelivered(id, digest)
	}
	if d.Obs != nil {
		d.Obs.OnAccept(d.Clock.Now(), d.ID, id, payload, meta)
	}
}

// ObserveRx reports one received frame to the observer.
func (d *Deps) ObserveRx(pkt *wire.Packet) {
	if d.Obs != nil {
		d.Obs.OnPacketRx(d.Clock.Now(), d.ID, pkt.Kind, pkt.ID(), pkt.Meta)
	}
}

// ObserveSuppressed reports one redundant data frame that was suppressed
// instead of forwarded — the shared choke point, and the one source DESIGN's
// emission table names, for OnForwardSuppressed across the protocol and the
// baselines.
func (d *Deps) ObserveSuppressed(id wire.MsgID, meta wire.Meta) {
	if d.Obs != nil {
		d.Obs.OnForwardSuppressed(d.Clock.Now(), d.ID, id, meta)
	}
}

// msgState tracks one known message. The layout is kept within the 128-byte
// allocation size class (TestMsgStateSize).
type msgState struct {
	id        wire.MsgID
	payload   []byte
	dataSig   []byte // originator signature over the data
	headerSig []byte // originator signature over the header (gossip proof)
	// at is when the entry entered its current phase: receipt for a held
	// entry, the payload drop for a tombstone (quiescence GC input).
	at time.Duration
	// prev and next thread the entry into the store's held or tombstone list.
	prev, next *msgState

	// Causal lineage of the local copy: the frame it arrived on, its
	// data-path hop count, whether gossip recovery repaired any hop of its
	// journey (sticky downstream), and the payload digest. All zero for a
	// locally originated message.
	viaFrame     uint64
	digest       uint64
	viaHops      uint32
	viaRecovered bool
	purged       bool // payload dropped; id retained as duplicate-filter tombstone
}

// Per-entry side-table caps. These small tallies hang off entries of the
// capped protocol tables, so the product with the table's own cap bounds the
// total state an adversary can grow.
const (
	// maxMissGossipers caps the distinct gossipers tracked (and asked) per
	// missing message. Later gossip rounds retry recovery naturally, so
	// refusing to track a 65th avenue costs only latency under an absurdly
	// rich neighbourhood.
	maxMissGossipers = 64
	// maxReqCounters caps the distinct requesters counted per request
	// record. A requester beyond the cap is served but not counted; VERBOSE
	// indictment needs repeat offenders, which by definition are counted.
	maxReqCounters = 64
)

// nodeCount is one node's tally in a counts.
type nodeCount struct {
	node wire.NodeID
	n    int
}

// counts is a small per-node tally, ascending by node with one entry per
// node. Records start it on an inline two-entry array, which covers the
// common one or two nodes without a second allocation.
type counts []nodeCount

// find returns the index of node's entry, or where it belongs, and whether
// it is there.
func (c counts) find(node wire.NodeID) (int, bool) {
	return slices.BinarySearchFunc(c, node, func(e nodeCount, node wire.NodeID) int {
		return cmp.Compare(e.node, node)
	})
}

// bump adds one to node's tally, entering it at zero if absent, and returns
// the new tally.
func (c *counts) bump(node wire.NodeID) int {
	i, ok := c.find(node)
	if !ok {
		*c = slices.Insert(*c, i, nodeCount{node: node})
	}
	(*c)[i].n++
	return (*c)[i].n
}

// pendingMiss tracks a message known (from gossip) but not yet received.
// Every distinct gossiper is asked once (after RequestDelay); beyond that, a
// bounded retransmission chain re-requests with exponential backoff up to
// RetryMaxAttempts times (rotating through the known gossipers) before
// giving up explicitly — after which subsequent gossip rounds still retry
// the recovery naturally.
type pendingMiss struct {
	headerSig []byte
	//bbvet:bounded-by maxMissGossipers noteMissing refuses growth past the cap; total is maxMissGossipers×MaxMissing
	gossipers  counts // advertiser → requests sent to it so far
	inline     [2]nodeCount
	firstHeard time.Duration
	attempts   int  // retransmissions sent so far (first requests excluded)
	retryArmed bool // the retransmission chain has been started
	// srcFrame is the gossip frame that first advertised the gap: requests
	// and retries cite it as their causal parent.
	srcFrame uint64
}

// neighborState is what we know about one direct neighbour. It doubles as
// the per-sender admission state: keeping the token bucket here means the
// rate-limiter's memory is bounded by the same cap as the neighbour table.
type neighborState struct {
	lastHeard time.Duration
	hits      int
	state     *wire.OverlayState // last verified report, nil before the first
	stateSig  []byte             // the signature state verified under

	tokens     float64       // admission token bucket (packets)
	lastRefill time.Duration // last bucket refill instant

	link linkEstimate // adaptive timing's view of this link (adaptive.go)
}

// admitted reports whether the neighbour has proven itself with more than
// one packet. Debouncing keeps marginal fringe links (whose beacons arrive
// sporadically) from churning the overlay computation.
func (n *neighborState) admitted() bool { return n.hits >= 2 }

// Stats counts protocol-level events for analysis.
type Stats struct {
	Accepted         uint64
	Duplicates       uint64
	BadSignatures    uint64
	Forwarded        uint64
	GossipsSent      uint64
	RequestsSent     uint64
	FindsSent        uint64
	RecoveredByData  uint64 // requests answered with data by this node
	RateLimited      uint64 // packets shed by the per-sender admission bucket
	DedupSkips       uint64 // signature verifications avoided by byte-equal dedup
	Evictions        uint64 // state entries evicted/rejected to stay under caps
	Adaptations      uint64 // committed adaptive-timer changes
	RetriesSent      uint64 // explicit retransmissions of missing-message requests
	RetriesAbandoned uint64 // retransmission chains that hit the attempt cap
	// RepliesSuppressed counts deferred recovery replies dropped because
	// the data they would have sent or sought was heard first, or because a
	// request naming this node made it reply at once.
	RepliesSuppressed uint64

	Rejoins            uint64 // amnesiac re-initializations (Rejoin calls)
	SyncReqsSent       uint64 // catch-up SYNC-REQ packets sent
	SyncEntriesServed  uint64 // entries served in SYNC-RESP packets
	SyncEntriesApplied uint64 // entries accepted from SYNC-RESP packets
	SyncAbandoned      uint64 // catch-up rounds abandoned at the attempt cap
}

// counters lists every counter once, so Add and Div cannot skip one.
func (s *Stats) counters() []*uint64 {
	return []*uint64{
		&s.Accepted, &s.Duplicates, &s.BadSignatures, &s.Forwarded,
		&s.GossipsSent, &s.RequestsSent, &s.FindsSent, &s.RecoveredByData,
		&s.RateLimited, &s.DedupSkips, &s.Evictions, &s.Adaptations,
		&s.RetriesSent, &s.RetriesAbandoned, &s.RepliesSuppressed,
		&s.Rejoins, &s.SyncReqsSent, &s.SyncEntriesServed,
		&s.SyncEntriesApplied, &s.SyncAbandoned,
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

// Protocol is one node's instance of the Byzantine broadcast protocol.
type Protocol struct {
	cfg  Config
	deps Deps

	seq wire.Seq

	store   msgStore
	missing map[wire.MsgID]*pendingMiss

	neighbors map[wire.NodeID]*neighborState
	// gossipPeriod is the current (possibly adapted) lazycast period; the
	// gossip scheduler re-reads it every round.
	gossipPeriod time.Duration
	// gossipCursor is the last id a gossip round advertised when the cap
	// cut it (gossipCut); the next round starts after it.
	gossipCursor wire.MsgID
	gossipCut    bool

	role     overlay.Role
	roleCand overlay.Role
	roleRun  int
	maint    overlay.Maintainer

	mute    *fd.Mute
	verbose *fd.Verbose
	trust   *fd.Trust

	reqSeen map[wire.MsgID]*reqRecord // request counts per requester, one per held entry at most
	// replies holds each deferred recovery reply (reply), at most one per id.
	//bbvet:bounded-by MaxReqSeen reply answers at once rather than add an entry past the cap, and a firing or dropped reply deletes its own entry
	replies map[wire.MsgID]pendingReply
	// replyTokens numbers deferred replies, so a timer sends only the entry
	// it was armed for. It is never reset, not even by Rejoin.
	replyTokens uint64

	// timers holds the armed recovery timers (first requests, retry steps,
	// deferred replies) as values, by (due, arm order); fire, the method
	// value fireTimer bound once in New, pops the head each time the clock
	// calls it. The heap is never dropped or replaced, not even by Rejoin:
	// each entry leaves when its own clock event fires.
	//bbvet:bounded-by MaxMissing an entry lives no longer than the longest recovery delay (retryBackoffMax plus a quarter); the live ones are at most maxMissGossipers first requests and one retry step per missing entry and one reply per replies entry (MaxReqSeen), the rest stale ones of records resolved or wiped within that delay
	timers   timerHeap
	timerSeq uint64
	fire     func()

	// Per-node chunks (chunk) for the records created once per message, per
	// recovered id and per sent frame.
	frames chunk[wire.Packet]
	misses chunk[pendingMiss]
	reqs   chunk[reqRecord]

	// Catch-up sync state: syncArmed is set from rejoin (or a restored-state
	// start) until the node is caught up or gives up; syncAttempts counts
	// rounds without progress toward the syncMaxAttempts cap.
	syncArmed    bool
	syncAttempts int

	// Scratch reused by the per-packet and periodic paths, so work repeated
	// every tick does not allocate. None of it ever leaves the protocol:
	// frames handed to Send take a frames slot, which is never handed out
	// twice, and published state records get fresh memory.
	sigBuf []byte // signed-bytes buffer for one Sign/Verify call
	//bbvet:bounded-by MaxStore holds the store's keys, sorted, for one sync walk
	msgIDs []wire.MsgID
	//bbvet:bounded-by GossipMaxEntries the advertisements of one gossip round, copied into the frame
	gossipEntries []wire.GossipEntry
	//bbvet:bounded-by MaxNeighbors the neighbour table's keys, ascending, updated with every insert and delete
	nodeIDs []wire.NodeID
	//bbvet:bounded-by MaxNeighbors the admitted neighbours of one maintenance view
	viewInfos []overlay.NeighborInfo
	//bbvet:bounded-by MaxNeighbors OL(1,p) as last computed
	overlayIDs []wire.NodeID
	//bbvet:bounded-by MaxNeighbors the state record under construction; its lists are subsets of the neighbour table plus the suspects
	stateScratch wire.OverlayState
	// published is the last state record handed out by buildState, and
	// publishedSig this node's signature over it. Both are shared with
	// in-flight frames and receivers and never written again.
	published    *wire.OverlayState
	publishedSig []byte
	distrusts    func(wire.NodeID) bool // View.Distrusts, built once
	//bbvet:bounded-by MaxNeighbors one link-quality sample per neighbour entry
	linkQuals []float64

	stats   Stats
	stopped bool
}

// New builds a protocol instance and starts its periodic tasks (gossip,
// maintenance, purge). Call Stop to halt them.
func New(cfg Config, deps Deps) *Protocol {
	p := &Protocol{
		cfg:          cfg,
		deps:         deps,
		store:        msgStore{byID: make(map[wire.MsgID]*msgState)},
		missing:      make(map[wire.MsgID]*pendingMiss),
		neighbors:    make(map[wire.NodeID]*neighborState),
		gossipPeriod: cfg.GossipInterval,
		role:         overlay.Passive,
		maint:        overlay.New(cfg.Overlay),
		reqSeen:      make(map[wire.MsgID]*reqRecord),
		replies:      make(map[wire.MsgID]pendingReply),
	}
	p.distrusts = func(id wire.NodeID) bool { return p.level(id) == fd.Untrusted }
	p.fire = p.fireTimer
	p.initDetectors()
	if restored := p.restoreDurable(); restored > 0 && cfg.CatchUpSync {
		// A daemon restarting over a non-empty durable store missed traffic
		// while down, exactly like an in-sim rejoiner.
		p.armCatchUp()
	}

	if cfg.GossipInterval > 0 {
		// The gossip period is dynamic: the adaptive controller rewrites
		// p.gossipPeriod and the scheduler re-reads it each round. The jitter
		// stays that of the nominal interval, so adapting the period never
		// changes what is drawn from the RNG.
		p.schedulePeriodicFunc(func() time.Duration { return p.gossipPeriod }, periodJitter(cfg.GossipInterval), p.gossipTick)
	}
	p.schedulePeriodic(cfg.MaintenanceInterval, periodJitter(cfg.MaintenanceInterval), p.maintenanceTick)
	p.schedulePeriodic(cfg.PurgeInterval, 0, p.purgeTick)
	if deps.Store != nil {
		// Jitterless so attaching a store draws nothing from the RNG: runs
		// with persistence off keep their exact draw schedule.
		p.schedulePeriodic(snapshotEvery, 0, p.snapshotTick)
	}
	return p
}

// initDetectors (re)builds the MUTE, VERBOSE and TRUST detectors and wires
// their transition hooks to the observer and the durable store. Rejoin calls
// it again: an amnesiac node restarts with empty volatile suspicion state.
func (p *Protocol) initDetectors() {
	now := p.deps.Clock.Now
	p.mute = fd.NewMute(now, p.cfg.Mute)
	p.verbose = fd.NewVerbose(now, p.cfg.Verbose)
	p.trust = fd.NewTrust(now, p.cfg.Trust, p.mute, p.verbose)
	obs, store, self := p.deps.Obs, p.deps.Store, p.deps.ID
	p.mute.OnSuspect = func(id wire.NodeID, suspected bool) {
		if store != nil {
			store.RecordSuspicion(persist.DetectorMute, id, suspected)
		}
		if obs != nil {
			obs.OnSuspicion(now(), self, id, obsv.DetectorMute, suspected)
		}
	}
	p.verbose.OnSuspect = func(id wire.NodeID, suspected bool) {
		if store != nil {
			store.RecordSuspicion(persist.DetectorVerbose, id, suspected)
		}
		if obs != nil {
			obs.OnSuspicion(now(), self, id, obsv.DetectorVerbose, suspected)
		}
	}
	p.trust.OnDirect = func(id wire.NodeID, _ fd.Reason) {
		if store != nil {
			store.RecordSuspicion(persist.DetectorTrust, id, true)
		}
		if obs != nil {
			obs.OnSuspicion(now(), self, id, obsv.DetectorTrust, true)
		}
	}
}

// snapshotEvery is the durable store's snapshot-compaction interval.
const snapshotEvery = 10 * time.Second

// snapshotTick compacts the durable store: one snapshot write replaces the
// accumulated record log.
func (p *Protocol) snapshotTick() {
	if p.deps.Store != nil {
		// Best-effort periodic snapshot: Store latches the failure in Err,
		// and the next health check surfaces it.
		_ = p.deps.Store.Snapshot()
	}
}

// Stop halts the node: every armed timer still fires once, finds the node
// stopped and does nothing, so no task runs or reschedules afterwards. The
// protocol must not be used afterwards.
func (p *Protocol) Stop() { p.stopped = true }

// ID returns the node identifier.
func (p *Protocol) ID() wire.NodeID { return p.deps.ID }

// Role returns the node's current overlay role.
func (p *Protocol) Role() overlay.Role { return p.role }

// InOverlay reports whether the node currently considers itself an overlay
// node.
func (p *Protocol) InOverlay() bool { return p.role.Active() }

// Stats returns a snapshot of protocol counters.
func (p *Protocol) Stats() Stats { return p.stats }

// Trust exposes the TRUST detector (read-mostly; used by tests and tools).
func (p *Protocol) Trust() *fd.Trust { return p.trust }

// NeighborCount reports the current neighbour-table size.
func (p *Protocol) NeighborCount() int { return len(p.neighbors) }

// GossipPeriod reports the current (possibly adapted) lazycast period.
func (p *Protocol) GossipPeriod() time.Duration { return p.gossipPeriod }

// MuteTimeout reports the current (possibly adapted) MUTE expectation
// timeout.
func (p *Protocol) MuteTimeout() time.Duration { return p.mute.Timeout() }

// LinkQualCount reports the number of neighbours with a link-quality
// estimate (test and invariant input).
func (p *Protocol) LinkQualCount() int {
	n := 0
	for _, id := range p.nodeIDs {
		if p.neighbors[id].link.started {
			n++
		}
	}
	return n
}

// Holds reports whether the node has (unpurged) message id.
func (p *Protocol) Holds(id wire.MsgID) bool {
	st, ok := p.store.byID[id]
	return ok && !st.purged
}

// StoreSize reports the number of held payloads and retained tombstones —
// the buffer the paper bounds by max_timeout·(n−1)·δ (§3.4.1).
func (p *Protocol) StoreSize() (held, tombstones int) {
	return p.store.held.n, p.store.tombs.n
}

// periodJitter is how far a gossip or maintenance period is randomized either
// way to desynchronize neighbours: a fifth of the nominal interval. That is
// less than the shortest period the interval allows (GossipBounds: a quarter
// of it), so a jittered period is positive however short the host makes the
// interval.
func periodJitter(interval time.Duration) time.Duration { return interval / 5 }

func (p *Protocol) schedulePeriodic(period, jitter time.Duration, fn func()) {
	if period <= 0 {
		return
	}
	p.schedulePeriodicFunc(func() time.Duration { return period }, jitter, fn)
}

// schedulePeriodicFunc is schedulePeriodic with the period re-read each
// round, so adaptive timers take effect from the next reschedule. A stopped
// node's tick returns without rescheduling, so the task needs no cancel.
func (p *Protocol) schedulePeriodicFunc(period func() time.Duration, jitter time.Duration, fn func()) {
	var tick func()
	schedule := func() {
		d := period()
		if jitter > 0 {
			d += time.Duration(p.deps.Rand.Int63n(int64(2*jitter))) - jitter
		}
		p.deps.Clock.After(d, tick)
	}
	// One closure serves every round, so rescheduling costs only the timer.
	tick = func() {
		if p.stopped {
			return
		}
		fn()
		schedule()
	}
	schedule()
}

// Broadcast originates a new application message (§3.2 lines 1–4): sign it,
// one-hop broadcast the data, and hold it for the gossip rounds, which sign
// and advertise its header (headerProof). It returns the message id.
func (p *Protocol) Broadcast(payload []byte) wire.MsgID {
	p.seq++
	if p.deps.Store != nil {
		// Persist the counter before the id escapes: a node that crashes and
		// recovers must never reuse a sequence number (readers treat a reused
		// (origin, seq) as a duplicate and would drop the new message).
		p.deps.Store.RecordSeq(uint32(p.seq))
	}
	id := wire.MsgID{Origin: p.deps.ID, Seq: p.seq}
	body := make([]byte, len(payload))
	copy(body, payload)
	p.sigBuf = wire.AppendDataSigBytes(p.sigBuf[:0], id, body)
	dataSig := p.deps.Scheme.Sign(uint32(p.deps.ID), p.sigBuf)
	digest := wire.Digest(body)
	p.enforceStoreCap()
	st := p.store.entries.new()
	*st = msgState{id: id, payload: body, dataSig: dataSig, digest: digest}
	p.store.hold(st, p.deps.Clock.Now())
	p.send(wire.Packet{
		Kind:    wire.KindData,
		TTL:     1,
		Target:  wire.NoNode,
		Origin:  id.Origin,
		Seq:     id.Seq,
		Payload: body,
		Sig:     dataSig,
		Meta:    wire.Meta{Hops: 1, Cause: wire.CauseOrigin, Digest: digest},
	})
	if p.deps.Deliver != nil {
		p.stats.Accepted++
		p.deps.Accept(id, body, wire.Meta{Cause: wire.CauseOrigin, Digest: digest})
	}
	return id
}

// signHeader signs id's gossip-advertisement bytes as this node.
func (p *Protocol) signHeader(id wire.MsgID) []byte {
	p.sigBuf = wire.AppendHeaderSigBytes(p.sigBuf[:0], id)
	return p.deps.Scheme.Sign(uint32(p.deps.ID), p.sigBuf)
}

// verifyData checks an originator's signature over a data message, once the
// store has been looked up (lookupMsg).
func (p *Protocol) verifyData(_ looked, id wire.MsgID, payload, tag []byte) bool {
	p.sigBuf = wire.AppendDataSigBytes(p.sigBuf[:0], id, payload)
	return p.verify(uint32(id.Origin), p.sigBuf, tag)
}

// verifyHeader checks an originator's signature over a gossip advertisement,
// once knownHeaderSig has found no byte-equal copy. checkHeader is its only
// caller.
func (p *Protocol) verifyHeader(_ looked, id wire.MsgID, tag []byte) bool {
	p.sigBuf = wire.AppendHeaderSigBytes(p.sigBuf[:0], id)
	return p.verify(uint32(id.Origin), p.sigBuf, tag)
}

// verifyState checks a neighbour's signature over its state record, once the
// sender's neighbour entry has been looked up (lookupNeighbor).
func (p *Protocol) verifyState(_ looked, from wire.NodeID, state *wire.OverlayState, tag []byte) bool {
	p.sigBuf = wire.AppendStateSigBytes(p.sigBuf[:0], from, state)
	return p.verify(uint32(from), p.sigBuf, tag)
}

// verify runs Scheme.Verify, reporting the outcome and the wall-clock cost
// to the observer when one is attached (wall-clock, not virtual: under
// simulation the duration still measures real CPU spent verifying). msg is
// usually p.sigBuf: schemes read it during the call and do not keep it.
func (p *Protocol) verify(signer uint32, msg, tag []byte) bool {
	if p.deps.Obs == nil {
		return p.deps.Scheme.Verify(signer, msg, tag)
	}
	start := time.Now() //bbvet:wallclock measures real CPU spent verifying; observability-only, never fed back into protocol decisions
	ok := p.deps.Scheme.Verify(signer, msg, tag)
	//bbvet:wallclock the verify duration is a wall-clock measurement by design (virtual time is zero here)
	p.deps.Obs.OnSigVerify(p.deps.Clock.Now(), p.deps.ID, ok, time.Since(start))
	return ok
}

// knownHeaderSig reports whether tag is byte-equal to a header signature this
// node already verified for id: the gossip proof of a stored message or of a
// pending recovery. Those exact bytes verified once, so a replayed
// advertisement, request or search costs a comparison, not a signature check.
// Only successes are remembered: a tag that matches nothing is verified in
// full every time it arrives. The store entry (nil when absent) is returned
// too, so a caller that goes on to use it pays for one lookup.
func (p *Protocol) knownHeaderSig(id wire.MsgID, tag []byte) (*msgState, bool, looked) {
	if st := p.store.byID[id]; st != nil {
		return st, st.headerSig != nil && bytes.Equal(tag, st.headerSig), looked{}
	}
	miss := p.missing[id]
	return nil, miss != nil && bytes.Equal(tag, miss.headerSig), looked{}
}

// checkHeader checks a header signature for id: a tag byte-equal to one this
// node already verified costs a comparison (knownHeaderSig), any other tag a
// verification. It returns the store entry the lookup found (nil when absent)
// and whether the tag is good; counting a bad one is the caller's business.
func (p *Protocol) checkHeader(id wire.MsgID, tag []byte) (*msgState, bool) {
	st, known, seen := p.knownHeaderSig(id, tag)
	if known {
		p.noteDedupSkip()
		return st, true
	}
	return st, p.verifyHeader(seen, id, tag)
}

// lookupMsg returns the store entry for id, nil when absent: the dedup lookup
// that must precede verifyData.
func (p *Protocol) lookupMsg(id wire.MsgID) (*msgState, looked) {
	return p.store.byID[id], looked{}
}

// lookupNeighbor returns the neighbour entry for id, nil when absent: the
// dedup lookup that must precede verifyState.
func (p *Protocol) lookupNeighbor(id wire.NodeID) (*neighborState, looked) {
	return p.neighbors[id], looked{}
}

// noteDedupSkip counts one signature verification avoided by byte-equal
// reuse — every reuse site reports through here, so Stats.DedupSkips and the
// AdmitDedup events stay one-to-one.
func (p *Protocol) noteDedupSkip() {
	p.stats.DedupSkips++
	p.observeAdmission(obsv.AdmitDedup)
}

// send copies pkt into a frame of its own, stamps the sender and hands the
// frame to the host. Frames come from the node's frame chunk, four to an
// array.
func (p *Protocol) send(pkt wire.Packet) {
	frame := p.frames.new()
	*frame = pkt
	frame.Sender = p.deps.ID
	p.deps.Send(frame)
}

// HandlePacket processes one received packet. Hosts call it for every frame
// the radio delivers. Admission control runs first: a sender over its token
// budget is shed before any signature verification or state mutation, so a
// flooding neighbour costs this node a table lookup per packet, not a hash.
//
// pkt is shared with the sender and every other receiver of the frame. The
// protocol retains parts of it (payload, signatures, the state record) and
// never modifies it; the one frame it relays edited (a FIND_MISSING with a
// lower TTL) goes out as a copy of the frame's fields.
func (p *Protocol) HandlePacket(pkt *wire.Packet) {
	if p.stopped || pkt.Sender == p.deps.ID {
		return
	}
	p.deps.ObserveRx(pkt)
	nb := p.touchNeighbor(pkt.Sender)
	in, ok := p.admit(nb, pkt)
	if !ok {
		p.stats.RateLimited++
		p.observeAdmission(obsv.AdmitRateLimit)
		return
	}
	if in.State != nil {
		p.handleState(in)
	}
	switch in.Kind {
	case wire.KindData:
		p.handleData(in)
	case wire.KindGossip:
		p.handleGossip(in)
	case wire.KindRequest:
		p.handleRequest(in)
	case wire.KindFindMissing:
		p.handleFindMissing(in)
	case wire.KindSyncReq:
		p.handleSyncReq(in)
	case wire.KindSyncResp:
		p.handleSyncResp(in)
	case wire.KindOverlayState:
		// State already processed above. This node piggybacks its own record
		// on gossip, but a peer may send it standalone.
	default:
		// Unknown kind from a valid codec never happens; ignore defensively.
	}
}

// handleData implements §3.2 lines 5–25.
func (p *Protocol) handleData(pkt admitted) {
	id := pkt.ID()
	st, seen := p.lookupMsg(id)
	if st != nil && !st.purged {
		p.stats.Duplicates++
		p.deps.ObserveSuppressed(id, pkt.Meta)
		// A genuine duplicate still proves the sender transmitted the
		// expected header: without this, expectations armed after the first
		// copy arrived could never be fulfilled and correct overlay
		// neighbours would accumulate false suspicions. It is also the frame
		// a deferred reply for id would send, so the neighbourhood has it
		// and the reply is dropped. A byte-identical copy of the stored
		// payload and signature is as convincing as re-verifying — those
		// exact bytes verified when first accepted — so replayed duplicates
		// cost a comparison, not a signature check.
		if _, pending := p.replies[id]; !p.cfg.EnableFDs && !pending {
			return
		}
		if bytes.Equal(pkt.Sig, st.dataSig) && bytes.Equal(pkt.Payload, st.payload) {
			p.noteDedupSkip()
		} else if !p.verifyData(seen, id, pkt.Payload, pkt.Sig) {
			return
		}
		if p.cfg.EnableFDs {
			p.mute.Fulfill(id, pkt.Sender)
		}
		p.cancelReply(id)
		return
	}
	if !p.verifyData(seen, id, pkt.Payload, pkt.Sig) {
		p.stats.BadSignatures++
		p.suspect(pkt.Sender, fd.ReasonBadSignature)
		return
	}
	if st != nil {
		// Already accepted once (tombstone); refresh payload for recovery
		// but do not deliver again.
		p.store.hold(st, p.deps.Clock.Now())
		st.payload = pkt.Payload
		st.dataSig = pkt.Sig
		st.viaFrame = pkt.Meta.Frame
		st.viaHops = pkt.Meta.Hops
		st.viaRecovered = pkt.Meta.Recovered
		st.digest = dataDigest(pkt.Packet)
		p.stats.Duplicates++
		p.deps.ObserveSuppressed(id, pkt.Meta)
		if p.cfg.EnableFDs {
			p.mute.Fulfill(id, pkt.Sender)
		}
		p.cancelReply(id)
		return
	}

	st = p.store.entries.new()
	*st = msgState{
		id:           id,
		payload:      pkt.Payload,
		dataSig:      pkt.Sig,
		viaFrame:     pkt.Meta.Frame,
		viaHops:      pkt.Meta.Hops,
		viaRecovered: pkt.Meta.Recovered,
		digest:       dataDigest(pkt.Packet),
	}
	miss := p.accept(st, pkt.Meta)
	// The neighbourhood heard this frame, so a search this node deferred for
	// the id has found it.
	p.cancelReply(id)

	if p.cfg.EnableFDs {
		// Any pending expectation for this data is satisfied by this sender.
		p.mute.Fulfill(id, pkt.Sender)
		// §3.2 lines 8–11: received from a non-overlay node that is not the
		// originator — the overlay neighbours should (also) forward it.
		if pkt.Sender != id.Origin && !p.isOverlayNeighbor(pkt.Sender) {
			if ol := p.overlayNeighbors(); len(ol) > 0 {
				p.mute.Expect(id, ol)
			}
		}
	}

	switch {
	case p.InOverlay():
		// §3.2 lines 12–13: overlay nodes forward.
		p.stats.Forwarded++
		p.forwardData(id, st, 1, wire.NoNode, wire.CauseOriginRelay)
	case pkt.TTL >= 2:
		// §3.2 lines 15–17: recovery floods travel two hops.
		p.stats.Forwarded++
		p.forwardData(id, st, pkt.TTL-1, pkt.Target, wire.CauseGossipRecovery)
	}

	// §3.2 lines 19–21: if we had heard a gossip for it while missing,
	// (re)register it with the lazycast so the next periodic gossip
	// advertises it — others that heard the same gossip may still be
	// missing the data.
	if miss != nil {
		p.registerGossip(st, miss.headerSig)
	}
}

// accept files st, a message this node has not delivered, and delivers it. It
// drops the id's recovery entry, which it returns (nil if there was none).
// meta is the completing frame's lineage; its digest is st's.
func (p *Protocol) accept(st *msgState, meta wire.Meta) *pendingMiss {
	miss := p.missing[st.id]
	delete(p.missing, st.id)
	p.enforceStoreCap()
	p.store.hold(st, p.deps.Clock.Now())
	p.stats.Accepted++
	meta.Digest = st.digest
	p.deps.Accept(st.id, st.payload, meta)
	return miss
}

func (p *Protocol) forwardData(id wire.MsgID, st *msgState, ttl uint8, target wire.NodeID, cause wire.Cause) {
	p.send(wire.Packet{
		Kind:    wire.KindData,
		TTL:     ttl,
		Target:  target,
		Origin:  id.Origin,
		Seq:     id.Seq,
		Payload: st.payload,
		Sig:     st.dataSig,
		Meta: wire.Meta{
			Parent: st.viaFrame,
			Hops:   st.viaHops + 1,
			Cause:  cause,
			Digest: st.digest,
			// A recovery transmission marks the chain: every delivery
			// downstream of one repair is attributed to recovery.
			Recovered: st.viaRecovered || cause == wire.CauseGossipRecovery,
		},
	})
}

// dataDigest returns the payload digest of a data frame, trusting the
// sender's precomputed Meta.Digest when present (simulation) and hashing
// locally otherwise (live transport, where Meta does not cross the wire).
func dataDigest(pkt *wire.Packet) uint64 {
	if pkt.Meta.Digest != 0 {
		return pkt.Meta.Digest
	}
	return wire.Digest(pkt.Payload)
}

// handleGossip implements §3.2 lines 26–41, batched. Two admission guards
// bound the work one datagram can buy: the entry count is capped, and an
// advertisement whose signature byte-matches one we already verified
// (checkHeader) skips re-verification entirely.
func (p *Protocol) handleGossip(pkt admitted) {
	p.noteGossipArrival(pkt.Sender)
	entries := pkt.Gossip
	if max := 2 * p.cfg.GossipMaxEntries; max > 0 && len(entries) > max {
		entries = entries[:max]
		p.observeAdmission(obsv.AdmitGossipTrim)
	}
	for i := range entries {
		entry := entries[i]
		st, ok := p.checkHeader(entry.ID, entry.Sig)
		if !ok {
			p.stats.BadSignatures++
			p.suspect(pkt.Sender, fd.ReasonBadSignature)
			continue
		}
		if st != nil {
			// Lines 35–37: register it with the lazycast (if not already
			// advertised) so the periodic gossip passes it onward.
			if !st.purged {
				p.registerGossip(st, entry.Sig)
			}
			continue
		}
		p.noteMissing(entry.ID, entry.Sig, pkt.Sender, pkt.Meta.Frame)
	}
}

// noteMissing registers a gossip-advertised message we do not hold and
// schedules its recovery (§3.2 lines 27–33). Every distinct gossiper is
// armed in MUTE (it has the message and must supply it when asked) and asked
// once; later gossip rounds repeat the process until the message arrives.
func (p *Protocol) noteMissing(id wire.MsgID, headerSig []byte, gossiper wire.NodeID, srcFrame uint64) {
	if !p.cfg.EnableRecovery {
		return
	}
	miss := p.missing[id]
	if miss == nil {
		if max := p.cfg.MaxMissing; max > 0 && len(p.missing) >= max {
			// Table full: refuse to track yet another advertised id. Later
			// gossip rounds retry naturally once entries expire or resolve.
			p.stats.Evictions++
			p.observeAdmission(obsv.AdmitMissingReject)
			return
		}
		miss = p.misses.new()
		*miss = pendingMiss{
			headerSig:  headerSig,
			firstHeard: p.deps.Clock.Now(),
			srcFrame:   srcFrame,
		}
		miss.gossipers = miss.inline[:0]
		p.missing[id] = miss
	}
	i, tracked := miss.gossipers.find(gossiper)
	if tracked {
		return // already being recovered via this gossiper
	}
	if len(miss.gossipers) >= maxMissGossipers {
		// Enough recovery avenues tracked; later gossip rounds retry anyway.
		return
	}
	miss.gossipers = slices.Insert(miss.gossipers, i, nodeCount{node: gossiper})
	if p.cfg.EnableFDs {
		// Line 28: the gossiper must be able to supply the message.
		p.mute.Expect(id, []wire.NodeID{gossiper})
	}
	delay := p.cfg.RequestDelay
	if gossiper == id.Origin {
		// §3.2 line 29 skips requests to the originator entirely, but that
		// loses one-shot messages whose initial broadcast was wiped out at
		// every neighbour (only the originator ever gossips them, so no
		// other recovery avenue exists). We deviate minimally: the
		// originator is asked too, after a doubled delay, so it remains the
		// avenue of last resort. See DESIGN.md ("deviations").
		delay *= 2
	}
	p.after(delay, timer{kind: timerRequest, id: id, miss: miss, to: gossiper})
}

// stillMissing is the fire-time guard of every recovery timer: it reports
// whether miss is still id's recovery entry on a running node. A timer whose
// entry was accepted, abandoned or wiped by Rejoin since it was armed finds
// another entry or none and does nothing, so no teardown cancels timers. An
// entry whose message is held by now is dropped.
func (p *Protocol) stillMissing(id wire.MsgID, miss *pendingMiss) bool {
	if p.stopped || p.missing[id] != miss {
		return false
	}
	if st, held := p.store.byID[id]; held && !st.purged {
		delete(p.missing, id)
		return false
	}
	return true
}

// request sends one REQUEST for id to target, a first request or a retry
// (cause), citing the gossip frame that advertised the gap (Figure 3 line 32:
// one hop, addressed to the gossiper; overlay neighbours answer too).
func (p *Protocol) request(id wire.MsgID, miss *pendingMiss, target wire.NodeID, cause wire.Cause) {
	p.stats.RequestsSent++
	miss.gossipers.bump(target)
	p.send(wire.Packet{
		Kind:   wire.KindRequest,
		TTL:    1,
		Target: target,
		Origin: id.Origin,
		Seq:    id.Seq,
		Sig:    miss.headerSig,
		Meta:   wire.Meta{Parent: miss.srcFrame, Cause: cause},
	})
}

// handleRequest implements Figure 4 lines 42–61.
func (p *Protocol) handleRequest(pkt admitted) {
	id := pkt.ID()
	st, ok := p.checkHeader(id, pkt.Sig)
	if !ok {
		p.stats.BadSignatures++
		p.suspect(pkt.Sender, fd.ReasonBadSignature)
		return
	}
	requester := pkt.Sender
	gossiper := pkt.Target
	if !p.InOverlay() && p.deps.ID != gossiper {
		return // line 43: only overlay nodes and the addressed gossiper react
	}
	if p.cfg.EnableFDs && p.verbose.Suspected(requester) {
		// §3.1: detecting verbose nodes lets us "stop reacting to messages
		// from these nodes" — the reaction-amplification cap. Only VERBOSE
		// verdicts gate here: a false MUTE suspicion must not cut a correct
		// node off from recovery.
		return
	}

	if st != nil && !st.purged {
		if p.InOverlay() && p.cfg.EnableFDs {
			// Line 46: an overlay node already broadcast this message;
			// tolerate a few re-requests (collisions), then indict.
			if p.bumpRequestCount(id, requester) > p.cfg.RequestTolerance {
				p.verbose.Indict(requester)
			}
		}
		p.reply(pkt, pendingReply{kind: replyAnswer, ttl: 1})
		return
	}

	// We do not hold the message (lines 49–57).
	if requester == id.Origin {
		// Line 55: the originator "requesting" its own message is absurd.
		if p.cfg.EnableFDs {
			p.verbose.Indict(requester)
		}
		return
	}
	if p.InOverlay() && p.cfg.EnableFindMissing {
		// Line 52: search two overlay hops out, bypassing one Byzantine hop.
		p.reply(pkt, pendingReply{kind: replyFind})
	}
}

// handleFindMissing implements Figure 4 lines 62–81.
func (p *Protocol) handleFindMissing(pkt admitted) {
	id := pkt.ID()
	st, ok := p.checkHeader(id, pkt.Sig)
	if !ok {
		p.stats.BadSignatures++
		p.suspect(pkt.Sender, fd.ReasonBadSignature)
		return
	}
	if p.cfg.EnableFDs && p.verbose.Suspected(pkt.Sender) {
		return // do not relay or serve searches from verbose spammers (§3.1)
	}
	if st == nil || st.purged {
		// Lines 63–66: relay the search one more hop.
		if pkt.TTL >= 2 {
			p.reply(pkt, pendingReply{kind: replyRelay})
		}
		return
	}
	// Lines 67–78: we hold the message.
	if !p.InOverlay() && p.deps.ID != pkt.Target {
		return
	}
	ttl := uint8(2) // line 75: an unknown asker is reached through a relay
	if nb := p.neighbors[pkt.Sender]; nb != nil && nb.admitted() {
		if p.InOverlay() && p.cfg.EnableFDs {
			// Line 71: a direct neighbour should have had it already.
			if p.bumpRequestCount(id, pkt.Sender) > p.cfg.RequestTolerance {
				p.verbose.Indict(pkt.Sender)
			}
		}
		ttl = 1 // line 73
	}
	p.reply(pkt, pendingReply{kind: replyServe, ttl: ttl})
}

// replyKind is what a recovery reply sends (Figure 4).
type replyKind uint8

const (
	replyAnswer replyKind = iota // the data, to a requester (line 48)
	replyFind                    // a FIND_MISSING for the named gossiper (line 52)
	replyRelay                   // the search, one hop on (lines 63–66)
	replyServe                   // the data, to a searcher (lines 73/75)
)

// pendingReply is one recovery reply: its kind, the TTL of the data it
// sends, the frame that asked for it, and, once deferred, the token its timer
// must find on the id's entry.
type pendingReply struct {
	kind  replyKind
	ttl   uint8
	ask   *wire.Packet
	token uint64
}

// reply sends one recovery reply to pkt (DESIGN deviation 11). The node pkt
// names (pkt.Target) replies at once. Any other node's reply waits
// replyBackoff and is dropped if data for the id is heard first
// (cancelReply): the named node's answer is a one-hop broadcast that serves
// every asker in range, while a mute one sends nothing to overhear. One reply
// per id waits at a time; at the MaxReqSeen cap the node replies at once.
// The timer sends the entry only if it still carries the timer's token: a
// dropped reply's timer finds no entry, or a later reply's, and does nothing.
func (p *Protocol) reply(pkt admitted, r pendingReply) {
	id := pkt.ID()
	r.ask = pkt.Packet
	if pkt.Target != p.deps.ID {
		if _, pending := p.replies[id]; pending {
			return
		}
		if max := p.cfg.MaxReqSeen; max <= 0 || len(p.replies) < max {
			p.replyTokens++
			r.token = p.replyTokens
			p.replies[id] = r
			p.after(p.replyBackoff(id), timer{kind: timerReply, id: id, token: r.token})
			return
		}
	}
	p.cancelReply(id) // replying now makes a waiting reply redundant
	p.sendReply(id, r)
}

// sendReply sends r for id, re-checking that it still makes sense: an answer
// that the id is still held, a search that it is still missing.
func (p *Protocol) sendReply(id wire.MsgID, r pendingReply) {
	ask := r.ask
	switch r.kind {
	case replyAnswer, replyServe:
		if st := p.store.byID[id]; st != nil && !st.purged {
			if r.kind == replyAnswer {
				p.stats.RecoveredByData++
			}
			p.forwardData(id, st, r.ttl, ask.Sender, wire.CauseGossipRecovery)
		}
	case replyFind:
		if !p.Holds(id) {
			p.stats.FindsSent++
			p.send(wire.Packet{
				Kind:   wire.KindFindMissing,
				TTL:    2,
				Target: ask.Target,
				Origin: id.Origin,
				Seq:    id.Seq,
				Sig:    ask.Sig,
				Meta:   wire.Meta{Parent: ask.Meta.Frame, Cause: wire.CauseFind},
			})
		}
	case replyRelay:
		if !p.Holds(id) {
			fwd := *ask // shares the asking frame's bytes, which no one writes
			fwd.TTL = ask.TTL - 1
			fwd.Meta = wire.Meta{Parent: ask.Meta.Frame, Cause: wire.CauseFind}
			p.send(fwd)
		}
	}
}

// cancelReply drops the deferred reply for id, if any; its timer will find no
// entry of its own. Only a data frame for id that verified (or byte-equals
// the verified copy) and this node's own reply call it, so a forged frame
// cannot silence a reply.
func (p *Protocol) cancelReply(id wire.MsgID) {
	if _, pending := p.replies[id]; pending {
		delete(p.replies, id)
		p.stats.RepliesSuppressed++
	}
}

// replyBackoff is how long a deferred reply waits: uniform over
// [RequestDelay/8, RequestDelay/4], 50–100 ms at the defaults. The low end
// sits past the MAC's queueing tail, so the addressed node's answer reaches
// the air first. The draw is a hash of (node, id), not Deps.Rand, so deferring
// a reply moves no other timer's draw.
func (p *Protocol) replyBackoff(id wire.MsgID) time.Duration {
	lo := p.cfg.RequestDelay / 8
	h := mix64(mix64(uint64(p.deps.ID)<<32|uint64(id.Origin)) ^ uint64(id.Seq))
	return lo + time.Duration(h%uint64(lo+1))
}

// mix64 is SplitMix64's finalizer: a bijection whose every output bit
// depends on every input bit.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (p *Protocol) suspect(id wire.NodeID, reason fd.Reason) {
	if p.cfg.EnableFDs {
		p.trust.Suspect(id, reason)
	}
}

// MissingCount reports how many gossip-advertised messages are still being
// recovered.
func (p *Protocol) MissingCount() int { return len(p.missing) }
