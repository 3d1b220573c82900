package core

// Adaptive timing under hostile links (ISSUE 6 tentpole): a per-neighbour
// link-quality estimator scores how many of the gossip rounds we expected
// from each neighbour actually arrived, and an AIMD controller moves the
// gossip period and the MUTE expectation timeout between hard configured
// bounds — gossiping faster and suspecting slower while the channel is bad,
// returning additively to the nominal values once it recovers. A bounded
// retransmission chain with exponential backoff re-requests missing messages
// a capped number of times before handing recovery back to the natural
// gossip cycle.
//
// Nothing here draws randomness on the estimator or AIMD path, and under a
// clean channel the quality stays above the degradation threshold so the
// timers never move: with AdaptiveTiming on but links healthy, the protocol
// is bit-identical to the static configuration.

import (
	"slices"
	"time"

	"bbcast/internal/obsv"
	"bbcast/internal/wire"
)

const (
	// linkQualAlpha is the EWMA weight of each maintenance window's
	// observed/expected gossip-arrival ratio.
	linkQualAlpha = 0.3
	// linkQualLow is the aggregate quality below which the timers take one
	// multiplicative step toward their degraded settings; at or above it they
	// recover additively toward nominal (the AIMD asymmetry: back off fast,
	// return cautiously).
	linkQualLow = 0.65
)

// linkEstimate is one neighbour's link-quality state: the gossip arrivals
// counted in the current maintenance window and the EWMA quality in [0, 1].
type linkEstimate struct {
	seen int
	q    float64
}

// noteGossipArrival counts one gossip packet heard from a neighbour. New
// links start optimistic (q=1): a neighbour is only tracked once it has
// proven it can deliver at least one packet, and pessimistic starts would
// make every join look like a degraded channel.
func (p *Protocol) noteGossipArrival(from wire.NodeID) {
	if !p.cfg.AdaptiveTiming {
		return
	}
	le := p.linkQual[from]
	if le == nil {
		if p.neighbors[from] == nil {
			return // estimator entries never outnumber the neighbour table
		}
		le = &linkEstimate{q: 1}
		p.linkQual[from] = le
	}
	le.seen++
}

// adaptTimers rolls every link estimator's window and applies one AIMD step
// to the adaptive timers. Runs once per maintenance tick, after neighbour
// expiry so dead links have already been dropped.
func (p *Protocol) adaptTimers() {
	if !p.cfg.AdaptiveTiming {
		return
	}
	// One gossip round is expected per GossipInterval; scale to the
	// maintenance window the counters cover. Expectations are measured
	// against the nominal interval — neighbours under the same degraded
	// channel gossip faster, which only helps the ratio.
	expected := 1.0
	if p.cfg.GossipInterval > 0 && p.cfg.MaintenanceInterval > 0 {
		if e := float64(p.cfg.MaintenanceInterval) / float64(p.cfg.GossipInterval); e > 1 {
			expected = e
		}
	}
	qs := p.linkQuals[:0]
	for id, le := range p.linkQual { //bbvet:unordered per-entry EWMA updates commute and the collected set is sorted below; the loop emits nothing
		if p.neighbors[id] == nil {
			delete(p.linkQual, id)
			continue
		}
		ratio := float64(le.seen) / expected
		if ratio > 1 {
			ratio = 1
		}
		le.q = (1-linkQualAlpha)*le.q + linkQualAlpha*ratio
		le.seen = 0
		qs = append(qs, le.q)
	}
	p.linkQuals = qs
	if len(qs) == 0 {
		return // no links under observation: leave the timers alone
	}
	// Aggregate with the (upper) median, not the mean: a Byzantine minority of
	// mute neighbours looks exactly like a set of dead links, and a mean would
	// let them drag the aggregate down — inflating the MUTE timeout and
	// delaying their own eviction. Genuine channel degradation hits every link
	// at once, so the median still falls with it.
	slices.Sort(qs)
	quality := qs[len(qs)/2]

	gMin, gMax := p.cfg.GossipBounds()
	mMin, mMax := p.cfg.MuteTimeoutBounds()
	oldG, oldM := p.gossipPeriod, p.mute.Timeout()
	var newG, newM time.Duration
	if quality < linkQualLow {
		// Multiplicative step into the degraded regime: gossip 25% faster
		// (more advertisement rounds survive a loss epoch) and stretch the
		// MUTE timeout by 50% (a late arrival on a bursty link is loss, not
		// muteness — suspecting correct neighbours dissolves the overlay
		// exactly when it is needed most).
		newG = oldG * 3 / 4
		newM = oldM * 3 / 2
	} else {
		// Additive recovery toward nominal, one small step per tick.
		newG = stepToward(oldG, p.cfg.GossipInterval, p.cfg.GossipInterval/8)
		newM = stepToward(oldM, p.cfg.Mute.Timeout, p.cfg.Mute.Timeout/8)
	}
	newG = clampDuration(newG, gMin, gMax)
	newM = clampDuration(newM, mMin, mMax)
	if newG != oldG {
		p.gossipPeriod = newG
		p.observeAdaptation(obsv.TimerGossip, oldG, newG)
	}
	if newM != oldM {
		p.mute.SetTimeout(newM)
		p.observeAdaptation(obsv.TimerMute, oldM, newM)
	}
}

// stepToward moves cur one additive step toward nominal, never overshooting.
func stepToward(cur, nominal, step time.Duration) time.Duration {
	if step <= 0 {
		return nominal
	}
	switch {
	case cur < nominal:
		cur += step
		if cur > nominal {
			cur = nominal
		}
	case cur > nominal:
		cur -= step
		if cur < nominal {
			cur = nominal
		}
	}
	return cur
}

func clampDuration(d, min, max time.Duration) time.Duration {
	if d < min {
		return min
	}
	if d > max {
		return max
	}
	return d
}

// observeAdaptation commits one adaptive-timer change: the counter and the
// observer event are emitted here and nowhere else (obsvonce's designated
// source for OnAdaptation).
func (p *Protocol) observeAdaptation(timer obsv.AdaptiveTimer, old, new time.Duration) {
	p.stats.Adaptations++
	if p.deps.Obs != nil {
		p.deps.Obs.OnAdaptation(p.deps.Clock.Now(), p.deps.ID, timer, old, new)
	}
}

// observeRetry records one retransmission action (obsvonce's designated
// source for OnRetry).
func (p *Protocol) observeRetry(id wire.MsgID, attempt int, abandoned bool) {
	if abandoned {
		p.stats.RetriesAbandoned++
	} else {
		p.stats.RetriesSent++
	}
	if p.deps.Obs != nil {
		p.deps.Obs.OnRetry(p.deps.Clock.Now(), p.deps.ID, id, attempt, abandoned)
	}
}

// The retransmission chain waits retryBackoffBase before its first attempt
// and doubles the wait per completed attempt up to retryBackoffMax.
const (
	retryBackoffBase = 800 * time.Millisecond
	retryBackoffMax  = 6400 * time.Millisecond
)

// retryBackoff returns the backoff before retransmission attempt+1.
func retryBackoff(attempt int) time.Duration {
	d := retryBackoffBase
	for i := 0; i < attempt && d < retryBackoffMax; i++ {
		d *= 2
	}
	return min(d, retryBackoffMax)
}

// armRetries starts the bounded retransmission chain for a missing message,
// once per entry: the first request that actually fires arms it, and later
// firing requests for other gossipers find it armed.
func (p *Protocol) armRetries(id wire.MsgID, miss *pendingMiss) {
	if p.cfg.RetryMaxAttempts <= 0 || miss.retryArmed {
		return
	}
	miss.retryArmed = true
	p.scheduleRetryStep(id, miss)
}

// scheduleRetryStep schedules the next retransmission for miss after the
// current backoff plus a deterministic jitter (co-located recoverers must not
// re-collide every attempt). At fire time: if the entry resolved, stop; if
// the attempt cap is reached, give up explicitly (the entry stays — later
// gossip rounds still retry recovery naturally); otherwise re-request from
// the next known gossiper, round-robin over the sorted set.
func (p *Protocol) scheduleRetryStep(id wire.MsgID, miss *pendingMiss) {
	backoff := retryBackoff(miss.attempts)
	delay := backoff + time.Duration(p.deps.Rand.Int63n(int64(backoff/4)+1))
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
		if miss.attempts >= p.cfg.RetryMaxAttempts {
			p.observeRetry(id, miss.attempts, true)
			return
		}
		target := miss.retryTarget(p.cfg.RequestTolerance)
		if target == wire.NoNode {
			// Every known gossiper has already been asked up to the
			// server-side RequestTolerance: one more request would get this
			// node indicted as VERBOSE and cut off from recovery entirely,
			// which is far worse than waiting for the next gossip round.
			p.observeRetry(id, miss.attempts, true)
			return
		}
		miss.attempts++
		miss.gossipers[target]++
		p.stats.RequestsSent++
		p.observeRetry(id, miss.attempts, false)
		p.send(&wire.Packet{
			Kind:   wire.KindRequest,
			TTL:    1,
			Target: target,
			Origin: id.Origin,
			Seq:    id.Seq,
			Sig:    miss.headerSig,
			Meta:   wire.Meta{Parent: miss.srcFrame, Cause: wire.CauseRetry},
		})
		p.scheduleRetryStep(id, miss)
	})
	miss.cancels = append(miss.cancels, cancel)
}

// retryTarget picks the least-asked known gossiper (ties to the lowest id),
// skipping any already asked `limit` times: spreading retries means a mute or
// Byzantine first choice cannot absorb the whole budget, and capping the
// per-target count at the server-side RequestTolerance means an honest
// requester never crosses the line where a correct server would indict it as
// VERBOSE. Returns NoNode when every gossiper is exhausted (limit > 0).
func (m *pendingMiss) retryTarget(limit int) wire.NodeID {
	ids := make([]wire.NodeID, 0, len(m.gossipers))
	for id := range m.gossipers {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	best, bestAsked := wire.NoNode, -1
	for _, id := range ids {
		asked := m.gossipers[id]
		if limit > 0 && asked >= limit {
			continue
		}
		if bestAsked == -1 || asked < bestAsked {
			best, bestAsked = id, asked
		}
	}
	return best
}
