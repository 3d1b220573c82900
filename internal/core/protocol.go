package core

import (
	"bytes"
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
// instead of forwarded — the shared choke point (and obsvonce designated
// source) for OnForwardSuppressed across the protocol and the baselines.
func (d *Deps) ObserveSuppressed(id wire.MsgID, meta wire.Meta) {
	if d.Obs != nil {
		d.Obs.OnForwardSuppressed(d.Clock.Now(), d.ID, id, meta)
	}
}

// msgState tracks one known message. The layout is kept within the 144-byte
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
	// holders are the distinct neighbours seen advertising this message
	// (stability detection input), ascending. A handful of ids per message: a
	// sorted slice is smaller and cheaper to probe than a map, and behind a
	// pointer it costs the runs without StabilityPurge one word.
	//bbvet:bounded-by maxHolders noteHolder refuses growth past the cap; total is maxHolders×MaxStore
	holders *[]wire.NodeID

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

// Per-entry side-table caps. These small maps hang off entries of the
// capped protocol tables, so the product with the table's own cap bounds the
// total state an adversary can grow.
const (
	// maxHolders caps the distinct advertisers tracked per stored message.
	// Stability purging needs only "enough distinct confirmations", so
	// dropping the excess loses nothing.
	maxHolders = 64
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

// noteHolder records that `from` advertised the message.
func (st *msgState) noteHolder(from wire.NodeID) {
	if st.holders == nil {
		// Room for a typical neighbourhood up front instead of growing
		// through 1, 2 and 4.
		st.holders = new([]wire.NodeID)
		*st.holders = make([]wire.NodeID, 0, 8)
	}
	i, found := slices.BinarySearch(*st.holders, from)
	if !found && len(*st.holders) < maxHolders {
		*st.holders = slices.Insert(*st.holders, i, from)
	}
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
	gossipers  map[wire.NodeID]int // advertiser → requests sent to it so far
	cancels    []func()
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
		&s.RetriesSent, &s.RetriesAbandoned,
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
	// linkQual is the per-neighbour link-quality estimator; entries are
	// created only for senders present in the neighbour table and deleted
	// alongside neighbour expiry/eviction, so the same cap bounds both.
	linkQual map[wire.NodeID]*linkEstimate
	// gossipPeriod is the current (possibly adapted) lazycast period; the
	// gossip scheduler re-reads it every round.
	gossipPeriod time.Duration

	role        overlay.Role
	roleCand    overlay.Role
	roleRun     int
	roleChanges uint64
	maint       overlay.Maintainer

	mute    *fd.Mute
	verbose *fd.Verbose
	trust   *fd.Trust

	reqSeen map[wire.MsgID]*reqRecord // request counts per requester, TTL-bound

	// Catch-up sync state: syncArmed is set from rejoin (or a restored-state
	// start) until the node is caught up or gives up; syncAttempts counts
	// rounds without progress toward the syncMaxAttempts cap.
	syncArmed    bool
	syncAttempts int

	// Scratch reused by the per-packet and periodic paths, so work repeated
	// every tick does not allocate. None of it ever leaves the protocol:
	// frames handed to Send and published state records get fresh memory.
	sigBuf []byte // signed-bytes buffer for one Sign/Verify call
	//bbvet:bounded-by MaxStore holds the keys of one protocol table at a time (store, missing or reqSeen)
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
	//bbvet:bounded-by MaxNeighbors one link-quality sample per estimator entry
	linkQuals []float64

	stats   Stats
	stops   []func()
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
		linkQual:     make(map[wire.NodeID]*linkEstimate),
		gossipPeriod: cfg.GossipInterval,
		role:         overlay.Passive,
		maint:        overlay.New(cfg.Overlay),
		reqSeen:      make(map[wire.MsgID]*reqRecord),
	}
	p.distrusts = func(id wire.NodeID) bool { return p.level(id) == fd.Untrusted }
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
		//bbvet:errflow best-effort periodic snapshot: Store latches the failure in Err and the next health check surfaces it
		_ = p.deps.Store.Snapshot()
	}
}

// Stop halts all periodic tasks. The protocol must not be used afterwards.
func (p *Protocol) Stop() {
	p.stopped = true
	for _, stop := range p.stops {
		stop()
	}
	p.stops = nil
}

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

// LinkQualCount reports the number of tracked link-quality estimator entries
// (test and invariant input).
func (p *Protocol) LinkQualCount() int { return len(p.linkQual) }

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
// round, so adaptive timers take effect from the next reschedule.
func (p *Protocol) schedulePeriodicFunc(period func() time.Duration, jitter time.Duration, fn func()) {
	stopped := false
	var cancel func()
	var tick func()
	schedule := func() {
		d := period()
		if jitter > 0 {
			d += time.Duration(p.deps.Rand.Int63n(int64(2*jitter))) - jitter
		}
		cancel = p.deps.Clock.After(d, tick)
	}
	// One closure serves every round, so rescheduling costs only the timer.
	tick = func() {
		if stopped || p.stopped {
			return
		}
		fn()
		schedule()
	}
	schedule()
	p.stops = append(p.stops, func() {
		stopped = true
		if cancel != nil {
			cancel()
		}
	})
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
	p.store.hold(&msgState{
		id:      id,
		payload: body,
		dataSig: dataSig,
		digest:  digest,
	}, p.deps.Clock.Now())
	p.send(&wire.Packet{
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

// verifyData checks an originator's signature over a data message.
func (p *Protocol) verifyData(id wire.MsgID, payload, tag []byte) bool {
	p.sigBuf = wire.AppendDataSigBytes(p.sigBuf[:0], id, payload)
	return p.verify(uint32(id.Origin), p.sigBuf, tag)
}

// verifyHeader checks an originator's signature over a gossip advertisement.
func (p *Protocol) verifyHeader(id wire.MsgID, tag []byte) bool {
	p.sigBuf = wire.AppendHeaderSigBytes(p.sigBuf[:0], id)
	return p.verify(uint32(id.Origin), p.sigBuf, tag)
}

// verifyState checks a neighbour's signature over its state record.
func (p *Protocol) verifyState(from wire.NodeID, state *wire.OverlayState, tag []byte) bool {
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
func (p *Protocol) knownHeaderSig(id wire.MsgID, tag []byte) (*msgState, bool) {
	if st := p.store.byID[id]; st != nil {
		return st, st.headerSig != nil && bytes.Equal(tag, st.headerSig)
	}
	miss := p.missing[id]
	return nil, miss != nil && bytes.Equal(tag, miss.headerSig)
}

// noteDedupSkip counts one signature verification avoided by byte-equal
// reuse — every reuse site reports through here, so Stats.DedupSkips and the
// AdmitDedup events stay one-to-one.
func (p *Protocol) noteDedupSkip() {
	p.stats.DedupSkips++
	p.observeAdmission(obsv.AdmitDedup)
}

// send stamps the sender and hands the packet to the host.
func (p *Protocol) send(pkt *wire.Packet) {
	pkt.Sender = p.deps.ID
	p.deps.Send(pkt)
}

// HandlePacket processes one received packet. Hosts call it for every frame
// the radio delivers. Admission control runs first: a sender over its token
// budget is shed before any signature verification or state mutation, so a
// flooding neighbour costs this node a table lookup per packet, not a hash.
//
// pkt is shared with the sender and every other receiver of the frame. The
// protocol retains parts of it (payload, signatures, the state record) and
// never modifies it; the one frame it relays edited (a FIND_MISSING with a
// lower TTL) goes out as a Clone.
func (p *Protocol) HandlePacket(pkt *wire.Packet) {
	if p.stopped || pkt.Sender == p.deps.ID {
		return
	}
	p.deps.ObserveRx(pkt)
	nb := p.touchNeighbor(pkt.Sender)
	if !p.admit(nb) {
		p.stats.RateLimited++
		p.observeAdmission(obsv.AdmitRateLimit)
		return
	}
	if pkt.State != nil {
		p.handleState(pkt.Sender, pkt.State, pkt.StateSig)
	}
	switch pkt.Kind {
	case wire.KindData:
		p.handleData(pkt)
	case wire.KindGossip:
		p.handleGossip(pkt)
	case wire.KindRequest:
		p.handleRequest(pkt)
	case wire.KindFindMissing:
		p.handleFindMissing(pkt)
	case wire.KindSyncReq:
		p.handleSyncReq(pkt)
	case wire.KindSyncResp:
		p.handleSyncResp(pkt)
	case wire.KindOverlayState:
		// State already processed above.
	default:
		// Unknown kind from a valid codec never happens; ignore defensively.
	}
}

// handleData implements §3.2 lines 5–25.
func (p *Protocol) handleData(pkt *wire.Packet) {
	id := pkt.ID()
	st := p.store.byID[id]
	if st != nil && !st.purged {
		p.stats.Duplicates++
		p.deps.ObserveSuppressed(id, pkt.Meta)
		// A duplicate still proves the sender transmitted the expected
		// header: without this, expectations armed after the first copy
		// arrived could never be fulfilled and correct overlay neighbours
		// would accumulate false suspicions. A byte-identical copy of the
		// stored payload and signature is as convincing as re-verifying —
		// those exact bytes verified when first accepted — so replayed
		// duplicates cost a comparison, not a signature check.
		if p.cfg.EnableFDs {
			if bytes.Equal(pkt.Sig, st.dataSig) && bytes.Equal(pkt.Payload, st.payload) {
				p.noteDedupSkip()
				p.mute.Fulfill(fd.ExpectKey{Kind: wire.KindData, ID: id}, pkt.Sender)
			} else if p.verifyData(id, pkt.Payload, pkt.Sig) {
				p.mute.Fulfill(fd.ExpectKey{Kind: wire.KindData, ID: id}, pkt.Sender)
			}
		}
		return
	}
	if !p.verifyData(id, pkt.Payload, pkt.Sig) {
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
		st.digest = dataDigest(pkt)
		p.stats.Duplicates++
		p.deps.ObserveSuppressed(id, pkt.Meta)
		if p.cfg.EnableFDs {
			p.mute.Fulfill(fd.ExpectKey{Kind: wire.KindData, ID: id}, pkt.Sender)
		}
		return
	}

	heardGossipBefore := false
	miss := p.missing[id]
	if miss != nil {
		heardGossipBefore = true
		for _, cancel := range miss.cancels {
			cancel()
		}
		delete(p.missing, id)
	}

	st = &msgState{
		id:           id,
		payload:      pkt.Payload,
		dataSig:      pkt.Sig,
		viaFrame:     pkt.Meta.Frame,
		viaHops:      pkt.Meta.Hops,
		viaRecovered: pkt.Meta.Recovered,
		digest:       dataDigest(pkt),
	}
	p.enforceStoreCap()
	p.store.hold(st, p.deps.Clock.Now())
	// A fresh acceptance closes any request cycle for the id: the record is
	// satisfied, so its per-requester counts need not be retained.
	delete(p.reqSeen, id)
	p.stats.Accepted++
	acceptMeta := pkt.Meta
	acceptMeta.Digest = st.digest
	p.deps.Accept(id, pkt.Payload, acceptMeta)

	if p.cfg.EnableFDs {
		// Any pending expectation for this data is satisfied by this sender.
		p.mute.Fulfill(fd.ExpectKey{Kind: wire.KindData, ID: id}, pkt.Sender)
		// §3.2 lines 8–11: received from a non-overlay node that is not the
		// originator — the overlay neighbours should (also) forward it.
		if pkt.Sender != id.Origin && !p.isOverlayNeighbor(pkt.Sender) {
			if ol := p.overlayNeighbors(); len(ol) > 0 {
				p.mute.Expect(fd.ExpectKey{Kind: wire.KindData, ID: id}, ol, fd.ExpectAny)
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
	if heardGossipBefore && miss != nil {
		p.registerGossip(id, st, miss.headerSig)
	}
}

func (p *Protocol) forwardData(id wire.MsgID, st *msgState, ttl uint8, target wire.NodeID, cause wire.Cause) {
	p.send(&wire.Packet{
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
// (knownHeaderSig) skips re-verification entirely.
func (p *Protocol) handleGossip(pkt *wire.Packet) {
	p.noteGossipArrival(pkt.Sender)
	entries := pkt.Gossip
	if max := 2 * p.cfg.GossipMaxEntries; max > 0 && len(entries) > max {
		entries = entries[:max]
		p.observeAdmission(obsv.AdmitGossipTrim)
	}
	for i := range entries {
		entry := entries[i]
		st, known := p.knownHeaderSig(entry.ID, entry.Sig)
		if known {
			p.noteDedupSkip()
		} else if !p.verifyHeader(entry.ID, entry.Sig) {
			p.stats.BadSignatures++
			p.suspect(pkt.Sender, fd.ReasonBadSignature)
			continue
		}
		if st != nil {
			// Lines 35–37: register it with the lazycast (if not already
			// advertised) so the periodic gossip passes it onward. The
			// gossiper is also a confirmed holder, which only stability
			// detection reads.
			if !st.purged {
				p.registerGossip(entry.ID, st, entry.Sig)
				if p.cfg.StabilityPurge {
					st.noteHolder(pkt.Sender)
				}
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
		miss = &pendingMiss{
			headerSig:  headerSig,
			gossipers:  make(map[wire.NodeID]int, 4),
			firstHeard: p.deps.Clock.Now(),
			srcFrame:   srcFrame,
		}
		p.missing[id] = miss
	}
	if _, tracked := miss.gossipers[gossiper]; tracked {
		return // already being recovered via this gossiper
	}
	if len(miss.gossipers) >= maxMissGossipers {
		// Enough recovery avenues tracked; later gossip rounds retry anyway.
		return
	}
	miss.gossipers[gossiper] = 0
	if p.cfg.EnableFDs {
		// Line 28: the gossiper must be able to supply the message.
		p.mute.Expect(fd.ExpectKey{Kind: wire.KindData, ID: id}, []wire.NodeID{gossiper}, fd.ExpectAny)
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
	p.scheduleRequest(id, miss, gossiper, delay)
}

func (p *Protocol) scheduleRequest(id wire.MsgID, miss *pendingMiss, gossiper wire.NodeID, delay time.Duration) {
	cancel := p.deps.Clock.After(delay, func() {
		if p.stopped {
			return
		}
		if cur, ok := p.missing[id]; !ok || cur != miss {
			return
		}
		if st, held := p.store.byID[id]; held && !st.purged {
			delete(p.missing, id)
			return
		}
		p.stats.RequestsSent++
		miss.gossipers[gossiper]++
		// Line 32: one-hop request addressed to the gossiper; overlay
		// neighbours answer too.
		p.send(&wire.Packet{
			Kind:   wire.KindRequest,
			TTL:    1,
			Target: gossiper,
			Origin: id.Origin,
			Seq:    id.Seq,
			Sig:    miss.headerSig,
			Meta:   wire.Meta{Parent: miss.srcFrame, Cause: wire.CauseRequest},
		})
		// The data did not arrive by itself: beyond the per-gossiper first
		// requests, start the bounded retransmission chain (once per entry).
		p.armRetries(id, miss)
	})
	miss.cancels = append(miss.cancels, cancel)
}

// handleRequest implements Figure 4 lines 42–61.
func (p *Protocol) handleRequest(pkt *wire.Packet) {
	id := pkt.ID()
	st, known := p.knownHeaderSig(id, pkt.Sig)
	if known {
		p.noteDedupSkip()
	} else if !p.verifyHeader(id, pkt.Sig) {
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
		p.stats.RecoveredByData++
		p.forwardData(id, st, 1, requester, wire.CauseGossipRecovery) // line 48
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
		p.stats.FindsSent++
		p.send(&wire.Packet{
			Kind:   wire.KindFindMissing,
			TTL:    2,
			Target: gossiper,
			Origin: id.Origin,
			Seq:    id.Seq,
			Sig:    pkt.Sig,
			Meta:   wire.Meta{Parent: pkt.Meta.Frame, Cause: wire.CauseFind},
		})
	}
}

// handleFindMissing implements Figure 4 lines 62–81.
func (p *Protocol) handleFindMissing(pkt *wire.Packet) {
	id := pkt.ID()
	st, known := p.knownHeaderSig(id, pkt.Sig)
	if known {
		p.noteDedupSkip()
	} else if !p.verifyHeader(id, pkt.Sig) {
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
			fwd := pkt.Clone()
			fwd.TTL = pkt.TTL - 1
			fwd.Meta = wire.Meta{Parent: pkt.Meta.Frame, Cause: wire.CauseFind}
			p.send(fwd)
		}
		return
	}
	// Lines 67–78: we hold the message.
	if !p.InOverlay() && p.deps.ID != pkt.Target {
		return
	}
	if nb := p.neighbors[pkt.Sender]; nb != nil && nb.admitted() {
		if p.InOverlay() && p.cfg.EnableFDs {
			// Line 71: a direct neighbour should have had it already.
			if p.bumpRequestCount(id, pkt.Sender) > p.cfg.RequestTolerance {
				p.verbose.Indict(pkt.Sender)
			}
		}
		p.forwardData(id, st, 1, pkt.Sender, wire.CauseGossipRecovery) // line 73
	} else {
		p.forwardData(id, st, 2, pkt.Sender, wire.CauseGossipRecovery) // line 75
	}
}

func (p *Protocol) suspect(id wire.NodeID, reason fd.Reason) {
	if p.cfg.EnableFDs {
		p.trust.Suspect(id, reason)
	}
}

// MissingCount reports how many gossip-advertised messages are still being
// recovered.
func (p *Protocol) MissingCount() int { return len(p.missing) }
