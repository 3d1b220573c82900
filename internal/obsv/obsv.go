// Package obsv defines the unified observability layer shared by the
// simulator and live deployments: a pluggable Observer interface fed
// exactly once per protocol event at the emitting layer, a composite for
// fan-out to several consumers, and a dependency-free metrics registry
// (counters, gauges, bounded summaries) with Prometheus-style text and JSON
// exposition.
//
// Event sources:
//
//   - packet tx: the transport layer (the simulated radio medium or the UDP
//     socket) emits one event per frame actually put on the air;
//   - packet rx: the protocol emits one event per frame the host hands it;
//   - inject: the workload source (the simulation scheduler or a live
//     Broadcast call) emits one event per originated message;
//   - accept: the protocol emits one event per application-level acceptance
//     (the paper's accept() upcall), including the originator's own when
//     the host attached a Deliver upcall;
//   - forward suppressed: the protocol emits one event per redundant data
//     frame it suppressed (already held or tombstoned) instead of forwarding;
//   - role change: the protocol emits one event per committed overlay role
//     transition;
//   - suspicion: the MUTE/VERBOSE detectors emit raise and clear
//     transitions, TRUST emits raises for direct deviations;
//   - sig verify: the protocol emits one event per signature verification,
//     with outcome and wall-clock duration (virtual-time zero under
//     simulation);
//   - queue depth: the protocol samples its internal queues (message store,
//     recovery backlog, neighbour table, armed expectations) once per
//     maintenance tick.
//
// Consumers (the metrics collector, the trace writer, the invariant checker,
// the metrics registry) implement Observer and are fanned out to with Multi;
// none of them re-derives events from protocol internals.
package obsv

import (
	"time"

	"bbcast/internal/overlay"
	"bbcast/internal/wire"
)

// Detector names the failure detector that raised or cleared a suspicion.
type Detector string

// Detectors.
const (
	DetectorMute    Detector = "mute"
	DetectorVerbose Detector = "verbose"
	DetectorTrust   Detector = "trust"
)

// Queue names a protocol-internal queue sampled for depth.
type Queue string

// Sampled queues.
const (
	// QueueStore is the message-store size: held payloads plus retained
	// tombstones (the table MaxStore caps).
	QueueStore Queue = "store"
	// QueueMissing is the number of gossip-advertised messages still being
	// recovered.
	QueueMissing Queue = "missing"
	// QueueNeighbors is the neighbour-table size.
	QueueNeighbors Queue = "neighbors"
	// QueueExpectations is the number of armed MUTE expectations.
	QueueExpectations Queue = "expectations"
	// QueueReqSeen is the number of tracked per-requester request records.
	QueueReqSeen Queue = "reqseen"
	// QueueLinkQual is the number of tracked per-neighbour link-quality
	// estimator entries.
	QueueLinkQual Queue = "linkqual"
)

// AdaptiveTimer names a protocol timer the link-quality estimator drives.
type AdaptiveTimer string

// Adaptive timers.
const (
	// TimerGossip is the gossip-round period.
	TimerGossip AdaptiveTimer = "gossip"
	// TimerMute is the MUTE failure-detector expectation timeout.
	TimerMute AdaptiveTimer = "mute"
)

// AdmissionEvent names one admission-control or state-GC action taken to keep
// a node's resources bounded under hostile traffic.
type AdmissionEvent string

// Admission events.
const (
	// AdmitRateLimit is a packet dropped because its sender exceeded the
	// per-sender token-bucket rate.
	AdmitRateLimit AdmissionEvent = "rate-limit"
	// AdmitDedup is a duplicate suppressed by byte comparison before any
	// signature verification was spent on it.
	AdmitDedup AdmissionEvent = "dedup"
	// AdmitGossipTrim is a received gossip batch truncated to the per-packet
	// entry cap.
	AdmitGossipTrim AdmissionEvent = "gossip-trim"
	// AdmitNeighborEvict is a neighbour-table entry evicted (LRU) to stay
	// under the configured cap.
	AdmitNeighborEvict AdmissionEvent = "neighbor-evict"
	// AdmitStoreEvict is a message-store entry evicted (quiescence GC or the
	// hard cap) rather than purged to a tombstone.
	AdmitStoreEvict AdmissionEvent = "store-evict"
	// AdmitMissingReject is a new recovery entry refused because the missing
	// table was full.
	AdmitMissingReject AdmissionEvent = "missing-reject"
	// AdmitReqSeenExpire is a request-count record evicted at the MaxReqSeen
	// cap. A record that dies with its held entry (purge or store eviction)
	// is not reported.
	AdmitReqSeenExpire AdmissionEvent = "reqseen-expire"
	// AdmitIngressDrop is a datagram dropped at the transport because the
	// protocol layer was saturated.
	AdmitIngressDrop AdmissionEvent = "ingress-drop"
)

// SyncEvent names one catch-up sync action.
type SyncEvent string

// Sync events.
const (
	// SyncReqSent is a rejoiner's SYNC-REQ transmission (entries counts the
	// have-summary ids it carried).
	SyncReqSent SyncEvent = "req-sent"
	// SyncServed is a responder's SYNC-RESP transmission (entries counts the
	// messages shipped; bytes their on-air size).
	SyncServed SyncEvent = "served"
	// SyncApplied is a rejoiner accepting a SYNC-RESP batch (entries counts
	// the messages newly accepted from it).
	SyncApplied SyncEvent = "applied"
	// SyncAbandoned is a rejoiner giving up catch-up (attempt cap reached
	// without completing a sync round).
	SyncAbandoned SyncEvent = "abandoned"
)

// Observer receives protocol and transport events. Implementations must be
// cheap and must not call back into the protocol; hot-path methods (tx, rx,
// sig verify) must not allocate. All methods are invoked synchronously from
// the emitting goroutine: single-threaded under simulation, and on a live
// transport each node's one owner goroutine serializes the calls.
type Observer interface {
	// OnPacketTx is one frame put on the air by node. meta carries the
	// frame's causal metadata: its frame id, the reception that caused it,
	// the cause tag and (for data) hop count and payload digest.
	OnPacketTx(at time.Duration, node wire.NodeID, kind wire.Kind, id wire.MsgID, meta wire.Meta)
	// OnPacketRx is one frame the host delivered to node's protocol. Under
	// simulation meta is the transmitter's; on a live transport it is zero
	// (causal metadata does not cross the wire).
	OnPacketRx(at time.Duration, node wire.NodeID, kind wire.Kind, id wire.MsgID, meta wire.Meta)
	// OnInject is one application message originated at node.
	OnInject(at time.Duration, node wire.NodeID, id wire.MsgID)
	// OnAccept is one application-level acceptance at node. The payload is
	// only valid for the duration of the call. meta is the metadata of the
	// frame that completed delivery (hops, recovery attribution, digest); an
	// originator's own acceptance carries Hops 0 and CauseOrigin.
	OnAccept(at time.Duration, node wire.NodeID, id wire.MsgID, payload []byte, meta wire.Meta)
	// OnForwardSuppressed is one data frame node received for a message it
	// already held (or had purged): the redundant arrival was suppressed
	// rather than re-forwarded. meta is the suppressed frame's metadata.
	OnForwardSuppressed(at time.Duration, node wire.NodeID, id wire.MsgID, meta wire.Meta)
	// OnRoleChange is one committed overlay role transition at node.
	OnRoleChange(at time.Duration, node wire.NodeID, role overlay.Role)
	// OnSuspicion is a suspicion transition: node's detector started
	// (raised=true) or stopped (raised=false) suspecting subject.
	OnSuspicion(at time.Duration, node, subject wire.NodeID, detector Detector, raised bool)
	// OnSigVerify is one signature verification at node with its outcome and
	// duration (zero under virtual time).
	OnSigVerify(at time.Duration, node wire.NodeID, ok bool, took time.Duration)
	// OnQueueDepth is one periodic sample of a protocol-internal queue.
	OnQueueDepth(at time.Duration, node wire.NodeID, queue Queue, depth int)
	// OnAdmission is one admission-control or state-GC action at node (a
	// rate-limited packet, a verify-free dedup, an eviction, an expiry, an
	// ingress drop).
	OnAdmission(at time.Duration, node wire.NodeID, event AdmissionEvent)
	// OnAdaptation is one committed adaptive-timer change at node: the named
	// timer moved from old to new (both within its configured bounds).
	OnAdaptation(at time.Duration, node wire.NodeID, timer AdaptiveTimer, old, new time.Duration)
	// OnRetry is one bounded-retransmission action at node for a missing
	// message: attempt counts from 1; abandoned marks the give-up transition
	// (the attempt cap was reached; no request was sent).
	OnRetry(at time.Duration, node wire.NodeID, id wire.MsgID, attempt int, abandoned bool)
	// OnSync is one catch-up sync action at node involving peer: a SYNC-REQ
	// sent, a SYNC-RESP served or applied, or the rejoiner abandoning.
	// entries and bytes quantify the event (see SyncEvent).
	OnSync(at time.Duration, node, peer wire.NodeID, event SyncEvent, entries, bytes int)
	// OnRejoin is one amnesiac rejoin at node: its volatile state was wiped
	// and re-initialized; restored counts the dedup tombstones recovered
	// from the durable store (0 without persistence).
	OnRejoin(at time.Duration, node wire.NodeID, restored int)
}

// Nop is a no-op Observer. Embed it to implement only the events a consumer
// cares about.
type Nop struct{}

// OnPacketTx implements Observer.
func (Nop) OnPacketTx(time.Duration, wire.NodeID, wire.Kind, wire.MsgID, wire.Meta) {}

// OnPacketRx implements Observer.
func (Nop) OnPacketRx(time.Duration, wire.NodeID, wire.Kind, wire.MsgID, wire.Meta) {}

// OnInject implements Observer.
func (Nop) OnInject(time.Duration, wire.NodeID, wire.MsgID) {}

// OnAccept implements Observer.
func (Nop) OnAccept(time.Duration, wire.NodeID, wire.MsgID, []byte, wire.Meta) {}

// OnForwardSuppressed implements Observer.
func (Nop) OnForwardSuppressed(time.Duration, wire.NodeID, wire.MsgID, wire.Meta) {}

// OnRoleChange implements Observer.
func (Nop) OnRoleChange(time.Duration, wire.NodeID, overlay.Role) {}

// OnSuspicion implements Observer.
func (Nop) OnSuspicion(time.Duration, wire.NodeID, wire.NodeID, Detector, bool) {}

// OnSigVerify implements Observer.
func (Nop) OnSigVerify(time.Duration, wire.NodeID, bool, time.Duration) {}

// OnQueueDepth implements Observer.
func (Nop) OnQueueDepth(time.Duration, wire.NodeID, Queue, int) {}

// OnAdmission implements Observer.
func (Nop) OnAdmission(time.Duration, wire.NodeID, AdmissionEvent) {}

// OnAdaptation implements Observer.
func (Nop) OnAdaptation(time.Duration, wire.NodeID, AdaptiveTimer, time.Duration, time.Duration) {}

// OnRetry implements Observer.
func (Nop) OnRetry(time.Duration, wire.NodeID, wire.MsgID, int, bool) {}

// OnSync implements Observer.
func (Nop) OnSync(time.Duration, wire.NodeID, wire.NodeID, SyncEvent, int, int) {}

// OnRejoin implements Observer.
func (Nop) OnRejoin(time.Duration, wire.NodeID, int) {}

// multi fans every event out to each member, in order.
type multi []Observer

// Multi composes observers into one. Nil members are dropped; Multi(nil...)
// returns nil and a single member is returned unwrapped, so the caller can
// always test the result against nil to skip emission entirely.
func Multi(obs ...Observer) Observer {
	kept := make(multi, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	default:
		return kept
	}
}

func (m multi) OnPacketTx(at time.Duration, node wire.NodeID, kind wire.Kind, id wire.MsgID, meta wire.Meta) {
	for _, o := range m {
		o.OnPacketTx(at, node, kind, id, meta)
	}
}

func (m multi) OnPacketRx(at time.Duration, node wire.NodeID, kind wire.Kind, id wire.MsgID, meta wire.Meta) {
	for _, o := range m {
		o.OnPacketRx(at, node, kind, id, meta)
	}
}

func (m multi) OnInject(at time.Duration, node wire.NodeID, id wire.MsgID) {
	for _, o := range m {
		o.OnInject(at, node, id)
	}
}

func (m multi) OnAccept(at time.Duration, node wire.NodeID, id wire.MsgID, payload []byte, meta wire.Meta) {
	for _, o := range m {
		o.OnAccept(at, node, id, payload, meta)
	}
}

func (m multi) OnForwardSuppressed(at time.Duration, node wire.NodeID, id wire.MsgID, meta wire.Meta) {
	for _, o := range m {
		o.OnForwardSuppressed(at, node, id, meta)
	}
}

func (m multi) OnRoleChange(at time.Duration, node wire.NodeID, role overlay.Role) {
	for _, o := range m {
		o.OnRoleChange(at, node, role)
	}
}

func (m multi) OnSuspicion(at time.Duration, node, subject wire.NodeID, detector Detector, raised bool) {
	for _, o := range m {
		o.OnSuspicion(at, node, subject, detector, raised)
	}
}

func (m multi) OnSigVerify(at time.Duration, node wire.NodeID, ok bool, took time.Duration) {
	for _, o := range m {
		o.OnSigVerify(at, node, ok, took)
	}
}

func (m multi) OnQueueDepth(at time.Duration, node wire.NodeID, queue Queue, depth int) {
	for _, o := range m {
		o.OnQueueDepth(at, node, queue, depth)
	}
}

func (m multi) OnAdmission(at time.Duration, node wire.NodeID, event AdmissionEvent) {
	for _, o := range m {
		o.OnAdmission(at, node, event)
	}
}

func (m multi) OnAdaptation(at time.Duration, node wire.NodeID, timer AdaptiveTimer, old, new time.Duration) {
	for _, o := range m {
		o.OnAdaptation(at, node, timer, old, new)
	}
}

func (m multi) OnRetry(at time.Duration, node wire.NodeID, id wire.MsgID, attempt int, abandoned bool) {
	for _, o := range m {
		o.OnRetry(at, node, id, attempt, abandoned)
	}
}

func (m multi) OnSync(at time.Duration, node, peer wire.NodeID, event SyncEvent, entries, bytes int) {
	for _, o := range m {
		o.OnSync(at, node, peer, event, entries, bytes)
	}
}

func (m multi) OnRejoin(at time.Duration, node wire.NodeID, restored int) {
	for _, o := range m {
		o.OnRejoin(at, node, restored)
	}
}

// skipAccepts suppresses accept events (used for nodes whose deliveries must
// not count, e.g. Byzantine nodes in a measured simulation).
type skipAccepts struct{ Observer }

func (skipAccepts) OnAccept(time.Duration, wire.NodeID, wire.MsgID, []byte, wire.Meta) {}

// SkipAccepts wraps o so accept events are dropped; every other event passes
// through. Returns nil for a nil o.
func SkipAccepts(o Observer) Observer {
	if o == nil {
		return nil
	}
	return skipAccepts{o}
}
