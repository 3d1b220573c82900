//bbvet:wallclock traced simulator rig: wall-clock spans around calls into the program's layers; the simulation itself only ever sees virtual time

package main

import (
	"fmt"
	"runtime"
	"time"

	"bbcast/internal/core"
	"bbcast/internal/env"
	"bbcast/internal/fd"
	"bbcast/internal/invariant"
	"bbcast/internal/loadgen"
	"bbcast/internal/mac"
	"bbcast/internal/metrics"
	"bbcast/internal/mobility"
	"bbcast/internal/obsv"
	"bbcast/internal/overlay"
	"bbcast/internal/radio"
	"bbcast/internal/runner"
	"bbcast/internal/sig"
	"bbcast/internal/sim"
	"bbcast/internal/wire"
)

// rigRun is one cell run through the traced rig.
type rigRun struct {
	simRun
	macStats    mac.Stats
	queueWaits  []time.Duration // virtual time from Deps.Send to Medium.OnTransmit
	bytesByKind [wire.NumKinds + 1]uint64
	overlaySize int
	engineWall  time.Duration // wall time of Engine.Run alone
	signs       uint64
}

// runRig assembles the object graph runner.Run builds for sc from the same
// public constructors, with a shim at Deps.Send, Deps.Scheme, Deps.Clock,
// Deps.Obs, the Medium.Attach callback and Medium.OnTransmit, and runs it.
// It covers what sim-steady and sim-knee use: the paper's protocol on the
// static jittered grid, HMAC signatures, correct nodes only, no fault plan,
// open-loop load. Anything else is refused; equivalent() then holds the rig
// to runner.Run's outcome on the same scenario.
func runRig(sc runner.Scenario, tr *tracer) (rigRun, error) {
	switch {
	case sc.Protocol != runner.ProtoByzCast, sc.Mobility != runner.MobGrid, sc.UseEd25519,
		len(sc.Adversaries) > 0, sc.FaultPlan != nil, sc.Core.Persist, sc.Trace != nil,
		sc.LoadGen != nil && sc.LoadGen.Arrival == loadgen.ClosedLoop:
		return rigRun{}, fmt.Errorf("rig: scenario %q uses a feature the rig does not assemble", sc.Name)
	}
	runtime.GC()
	before := readHost()

	eng := sim.New(sc.Seed)
	model := mobility.NewGridStatic(sc.Area, sc.N, 0.35, sc.Seed)
	sc.Radio.PosUpdate = 0
	medium := radio.New(eng, model, sc.N, sc.Radio)
	defer medium.Close()
	scheme := &rigScheme{inner: sig.NewHMAC(sc.N, sc.Seed), tr: tr}

	collector := metrics.NewCollector()
	protos := make([]*core.Protocol, sc.N)
	macs := make([]*mac.MAC, sc.N)
	chk := rigChecker(sc, eng, medium, protos)
	watch := newSimObserver()
	obs := &rigObserver{inner: obsv.Multi(collector, invariant.AsObserver(chk), watch), tr: tr}

	// The rig is the host here: like runner.Run it turns the medium's transmit
	// hook and the workload's injections into observer events, once each.
	// bbvet's obsvonce pass knows only the runner in that role and matches
	// method calls, so the two emissions go through method values.
	emitTx, emitInject := obs.OnPacketTx, obs.OnInject

	out := rigRun{}
	sentAt := make(map[*wire.Packet]time.Duration)
	medium.OnTransmit = func(from wire.NodeID, pkt *wire.Packet) {
		if at, ok := sentAt[pkt]; ok {
			out.queueWaits = append(out.queueWaits, eng.Now()-at)
			delete(sentAt, pkt)
		}
		out.bytesByKind[kindIndex(pkt.Kind)] += uint64(pkt.AirSize())
		emitTx(eng.Now(), from, pkt.Kind, pkt.ID(), pkt.Meta)
	}

	clock := rigClock{inner: env.SimClock{Eng: eng}, tr: tr}
	for i := 0; i < sc.N; i++ {
		id := wire.NodeID(i)
		m := mac.New(eng, medium, id, eng.SubRand(uint64(i)), sc.MAC)
		macs[i] = m
		p := core.New(sc.Core, core.Deps{
			ID:    id,
			Clock: clock,
			Send: func(pkt *wire.Packet) {
				sentAt[pkt] = eng.Now()
				tr.enter(spanMacSend)
				m.Send(pkt)
				tr.exit()
			},
			Scheme:  scheme,
			Rand:    eng.SubRand(uint64(i) + 1<<32),
			Obs:     obs,
			Deliver: func(wire.NodeID, wire.MsgID, []byte) {},
		})
		protos[i] = p
		medium.Attach(id, func(pkt *wire.Packet) {
			tr.enter(spanKind(kindIndex(pkt.Kind)))
			p.HandlePacket(pkt)
			tr.exit()
		})
	}

	rigWorkload(sc, eng, protos, emitInject, tr)

	runStart := time.Now()
	eng.Run(sc.Duration)
	out.engineWall = time.Since(runStart)
	if chk != nil {
		chk.Finish(eng.Now())
	}

	res := runner.Result{Phys: medium.Stats(), NumCorrect: sc.N, Events: eng.Processed()}
	if chk != nil {
		res.Violations = chk.Violations()
	}
	res.Results = collector.Summarize(sc.Protocol.String(), sc.N, func(wire.NodeID) int { return sc.N - 1 })
	for i := range protos {
		addCounters(&res.Node, protos[i].Stats())
		if protos[i].InOverlay() {
			out.overlaySize++
		}
		addCounters(&out.macStats, macs[i].Stats())
		protos[i].Stop()
		macs[i].Stop()
	}
	out.signs = scheme.signs
	out.simRun = newSimRun(res, watch, readHost().since(before))
	return out, nil
}

// rigChecker mirrors the runner's checker wiring for the paper's protocol.
func rigChecker(sc runner.Scenario, eng *sim.Engine, medium *radio.Medium, protos []*core.Protocol) *invariant.Checker {
	cfg := sc.Invariants
	if !sc.Core.EnableRecovery {
		cfg.Validity = false
	}
	if !sc.Core.EnableFDs {
		cfg.Detectors = false
	}
	if cfg.RedeliveryGrace > 0 && sc.Core.StoreQuiescence > cfg.RedeliveryGrace {
		cfg.RedeliveryGrace = sc.Core.StoreQuiescence
	}
	if !cfg.Enabled() {
		return nil
	}
	bounds := make(map[string]int)
	for queue, cap := range map[obsv.Queue]int{
		obsv.QueueStore:     sc.Core.MaxStore,
		obsv.QueueMissing:   sc.Core.MaxMissing,
		obsv.QueueNeighbors: sc.Core.MaxNeighbors,
		obsv.QueueReqSeen:   sc.Core.MaxReqSeen,
		obsv.QueueLinkQual:  sc.Core.MaxNeighbors,
	} {
		if cap > 0 {
			bounds[string(queue)] = cap
		}
	}
	gMin, gMax := sc.Core.GossipBounds()
	mMin, mMax := sc.Core.MuteTimeoutBounds()
	return invariant.New(cfg, eng.Now, invariant.Probes{
		N:      sc.N,
		Bounds: bounds,
		TimerRanges: map[string][2]time.Duration{
			string(obsv.TimerGossip): {gMin, gMax},
			string(obsv.TimerMute):   {mMin, mMax},
		},
		Correct:           func(id wire.NodeID) bool { return int(id) < sc.N },
		Up:                func(id wire.NodeID) bool { return !medium.IsDown(id) },
		Neighbors:         medium.Neighbors,
		ReliableNeighbors: medium.SolidNeighbors,
		OverlayActive:     func(id wire.NodeID) bool { return protos[id].InOverlay() },
		Suspects: func(observer, subject wire.NodeID) bool {
			return protos[observer].Trust().Level(subject) == fd.Untrusted
		},
	})
}

// rigWorkload schedules the injections the way the runner does: the fixed
// rate workload, or the open-loop load-generator schedule from the engine's
// 0x10adc3 substream.
func rigWorkload(sc runner.Scenario, eng *sim.Engine, protos []*core.Protocol, emitInject func(time.Duration, wire.NodeID, wire.MsgID), tr *tracer) {
	inject := func(sender int, payload []byte) {
		tr.enter(spanBroadcast)
		id := protos[sender].Broadcast(payload)
		tr.exit()
		emitInject(eng.Now(), wire.NodeID(sender), id)
	}
	fill := func(size int) []byte {
		p := make([]byte, size)
		for i := range p {
			p[i] = byte(i)
		}
		return p
	}
	if cfg := sc.LoadGen; cfg != nil {
		senders := cfg.Senders
		if senders > len(protos) {
			senders = len(protos)
		}
		payloads := make([][]byte, len(cfg.PayloadSizes))
		for i, sz := range cfg.PayloadSizes {
			payloads[i] = fill(sz)
		}
		for i, at := range cfg.Times(eng.SubRand(0x10adc3)) {
			slot := i
			eng.At(at, func() { inject(slot%senders, payloads[slot%len(payloads)]) })
		}
		return
	}
	w := sc.Workload
	if w.Rate <= 0 || w.Senders <= 0 {
		return
	}
	senders := w.Senders
	if senders > len(protos) {
		senders = len(protos)
	}
	interval := time.Duration(float64(time.Second) / w.Rate)
	payload := fill(w.PayloadSize)
	rng := eng.SubRand(0xb0ad)
	k := 0
	for at := w.Start; at < w.End; {
		sender := k % senders
		k++
		eng.At(at, func() { inject(sender, payload) })
		if w.Poisson {
			at += time.Duration(rng.ExpFloat64() * float64(interval))
		} else {
			at += interval
		}
	}
}

// equivalent reports how the rig's outcome differs from runner.Run's on the
// same scenario ("" when it does not).
func equivalent(rig, ref simStats) string {
	switch {
	case rig.Events != ref.Events:
		return fmt.Sprintf("events %d != %d", rig.Events, ref.Events)
	case rig.Phys != ref.Phys:
		return fmt.Sprintf("radio stats %+v != %+v", rig.Phys, ref.Phys)
	case rig.Node != ref.Node:
		return fmt.Sprintf("protocol stats %+v != %+v", rig.Node, ref.Node)
	case rig.Injected != ref.Injected:
		return fmt.Sprintf("injected %d != %d", rig.Injected, ref.Injected)
	case rig.Delivery != ref.Delivery:
		return fmt.Sprintf("delivery ratio %v != %v", rig.Delivery, ref.Delivery)
	case rig != ref:
		return fmt.Sprintf("observed accepts or violations differ: %+v != %+v", rig, ref)
	}
	return ""
}

// rigClock times the protocol's timer callbacks (gossip, maintenance, purge
// ticks, forward jitter, request delays).
type rigClock struct {
	inner env.Clock
	tr    *tracer
}

var _ env.Clock = rigClock{}

func (c rigClock) Now() time.Duration { return c.inner.Now() }

func (c rigClock) After(d time.Duration, fn func()) func() {
	return c.inner.After(d, func() {
		c.tr.enter(spanTimer)
		fn()
		c.tr.exit()
	})
}

// rigScheme times signing and verification inside whatever span calls them.
type rigScheme struct {
	inner sig.Scheme
	tr    *tracer
	signs uint64
}

var _ sig.Scheme = (*rigScheme)(nil)

func (s *rigScheme) Sign(id uint32, msg []byte) []byte {
	s.signs++
	s.tr.enter(spanSign)
	tag := s.inner.Sign(id, msg)
	s.tr.exit()
	return tag
}

func (s *rigScheme) Verify(id uint32, msg, tag []byte) bool {
	s.tr.enter(spanVerify)
	ok := s.inner.Verify(id, msg, tag)
	s.tr.exit()
	return ok
}

func (s *rigScheme) SigSize() int { return s.inner.SigSize() }
func (s *rigScheme) Name() string { return s.inner.Name() }

// rigObserver stands in front of the real observer chain (collector,
// invariant checker, the benchmark's own counter) and times every call.
type rigObserver struct {
	inner obsv.Observer
	tr    *tracer
}

var _ obsv.Observer = (*rigObserver)(nil)

func (o *rigObserver) OnPacketTx(at time.Duration, node wire.NodeID, kind wire.Kind, id wire.MsgID, meta wire.Meta) {
	o.tr.enter(spanObsv)
	o.inner.OnPacketTx(at, node, kind, id, meta)
	o.tr.exit()
}

func (o *rigObserver) OnPacketRx(at time.Duration, node wire.NodeID, kind wire.Kind, id wire.MsgID, meta wire.Meta) {
	o.tr.enter(spanObsv)
	o.inner.OnPacketRx(at, node, kind, id, meta)
	o.tr.exit()
}

func (o *rigObserver) OnInject(at time.Duration, node wire.NodeID, id wire.MsgID) {
	o.tr.enter(spanObsv)
	o.inner.OnInject(at, node, id)
	o.tr.exit()
}

func (o *rigObserver) OnAccept(at time.Duration, node wire.NodeID, id wire.MsgID, payload []byte, meta wire.Meta) {
	o.tr.enter(spanObsv)
	o.inner.OnAccept(at, node, id, payload, meta)
	o.tr.exit()
}

func (o *rigObserver) OnForwardSuppressed(at time.Duration, node wire.NodeID, id wire.MsgID, meta wire.Meta) {
	o.tr.enter(spanObsv)
	o.inner.OnForwardSuppressed(at, node, id, meta)
	o.tr.exit()
}

func (o *rigObserver) OnRoleChange(at time.Duration, node wire.NodeID, role overlay.Role) {
	o.tr.enter(spanObsv)
	o.inner.OnRoleChange(at, node, role)
	o.tr.exit()
}

func (o *rigObserver) OnSuspicion(at time.Duration, node, subject wire.NodeID, detector obsv.Detector, raised bool) {
	o.tr.enter(spanObsv)
	o.inner.OnSuspicion(at, node, subject, detector, raised)
	o.tr.exit()
}

func (o *rigObserver) OnSigVerify(at time.Duration, node wire.NodeID, ok bool, took time.Duration) {
	o.tr.enter(spanObsv)
	o.inner.OnSigVerify(at, node, ok, took)
	o.tr.exit()
}

func (o *rigObserver) OnQueueDepth(at time.Duration, node wire.NodeID, queue obsv.Queue, depth int) {
	o.tr.enter(spanObsv)
	o.inner.OnQueueDepth(at, node, queue, depth)
	o.tr.exit()
}

func (o *rigObserver) OnAdmission(at time.Duration, node wire.NodeID, event obsv.AdmissionEvent) {
	o.tr.enter(spanObsv)
	o.inner.OnAdmission(at, node, event)
	o.tr.exit()
}

func (o *rigObserver) OnAdaptation(at time.Duration, node wire.NodeID, timer obsv.AdaptiveTimer, old, new time.Duration) {
	o.tr.enter(spanObsv)
	o.inner.OnAdaptation(at, node, timer, old, new)
	o.tr.exit()
}

func (o *rigObserver) OnRetry(at time.Duration, node wire.NodeID, id wire.MsgID, attempt int, abandoned bool) {
	o.tr.enter(spanObsv)
	o.inner.OnRetry(at, node, id, attempt, abandoned)
	o.tr.exit()
}

func (o *rigObserver) OnSync(at time.Duration, node, peer wire.NodeID, event obsv.SyncEvent, entries, bytes int) {
	o.tr.enter(spanObsv)
	o.inner.OnSync(at, node, peer, event, entries, bytes)
	o.tr.exit()
}

func (o *rigObserver) OnRejoin(at time.Duration, node wire.NodeID, restored int) {
	o.tr.enter(spanObsv)
	o.inner.OnRejoin(at, node, restored)
	o.tr.exit()
}
