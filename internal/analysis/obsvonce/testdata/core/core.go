// Package core is an obsvonce fixture type-checked as bbcast/internal/core,
// so the emission table's core entries (Deps.Accept for OnAccept, and so on)
// apply to the look-alike types defined here. It imports the real obsv
// package: the analyzer resolves Observer through export data exactly as it
// does on the production tree.
package core

import (
	"time"

	"bbcast/internal/obsv"
	"bbcast/internal/wire"
)

// Deps mirrors the real core.Deps; Accept is OnAccept's designated source.
type Deps struct {
	ID  wire.NodeID
	Obs obsv.Observer
}

func (d Deps) Accept(at time.Duration, id wire.MsgID, payload []byte, meta wire.Meta) {
	d.Obs.OnAccept(at, d.ID, id, payload, meta) // designated source: allowed
	emit := func() {
		d.Obs.OnAccept(at, d.ID, id, payload, meta) // closures count as Deps.Accept
	}
	emit()
	d.Obs.OnInject(at, d.ID, id) // want `obsv\.Observer\.OnInject emitted outside its designated source`
}

// ObserveSuppressed is OnForwardSuppressed's designated source.
func (d Deps) ObserveSuppressed(at time.Duration, id wire.MsgID, meta wire.Meta) {
	d.Obs.OnForwardSuppressed(at, d.ID, id, meta) // designated source: allowed
}

func leak(at time.Duration, obs obsv.Observer, node wire.NodeID, id wire.MsgID) {
	obs.OnAccept(at, node, id, nil, wire.Meta{})       // want `obsv\.Observer\.OnAccept emitted outside its designated source`
	obs.OnForwardSuppressed(at, node, id, wire.Meta{}) // want `obsv\.Observer\.OnForwardSuppressed emitted outside its designated source`
}

// tee fans out to a second observer. It implements obsv.Observer through the
// embedded interface and overrides OnInject; a method named like the event it
// forwards is a forwarder, not a second emission.
type tee struct {
	obsv.Observer
	second obsv.Observer
}

func (t tee) OnInject(at time.Duration, node wire.NodeID, id wire.MsgID) {
	t.Observer.OnInject(at, node, id)
	t.second.OnInject(at, node, id)
}

// counter has an Observer-shaped method but does not implement obsv.Observer,
// so calling it is not an emission.
type counter struct{ n int }

func (c *counter) OnInject(time.Duration, wire.NodeID, wire.MsgID) { c.n++ }

func tally(c *counter, at time.Duration, node wire.NodeID, id wire.MsgID) {
	c.OnInject(at, node, id)
}

// forwardWrongEvent is the forwarder rule's limit: a forwarder may re-emit
// only its own event, anything else is a stray emission.
type loud struct {
	obsv.Observer
}

func (l loud) OnInject(at time.Duration, node wire.NodeID, id wire.MsgID) {
	l.Observer.OnInject(at, node, id)
	l.Observer.OnAccept(at, node, id, nil, wire.Meta{}) // want `obsv\.Observer\.OnAccept emitted outside its designated source`
}

// Protocol mirrors the real protocol's adaptive-timing chokepoints:
// observeAdaptation and observeRetry are the designated sources for
// OnAdaptation and OnRetry.
type Protocol struct {
	deps Deps
}

func (p *Protocol) observeAdaptation(at time.Duration, timer obsv.AdaptiveTimer, old, new time.Duration) {
	p.deps.Obs.OnAdaptation(at, p.deps.ID, timer, old, new) // designated source: allowed
}

func (p *Protocol) observeRetry(at time.Duration, id wire.MsgID, attempt int, abandoned bool) {
	p.deps.Obs.OnRetry(at, p.deps.ID, id, attempt, abandoned) // designated source: allowed
}

// adaptTimers must route timer changes through observeAdaptation, not emit
// directly.
func (p *Protocol) adaptTimers(at time.Duration) {
	p.observeAdaptation(at, obsv.TimerGossip, time.Second, time.Second/2)
	p.deps.Obs.OnAdaptation(at, p.deps.ID, obsv.TimerMute, 0, 0) // want `obsv\.Observer\.OnAdaptation emitted outside its designated source`
	p.deps.Obs.OnRetry(at, p.deps.ID, wire.MsgID{}, 1, false)    // want `obsv\.Observer\.OnRetry emitted outside its designated source`
}
