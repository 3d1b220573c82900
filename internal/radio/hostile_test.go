package radio

import (
	"testing"
	"time"

	"bbcast/internal/wire"
)

// TestOverlappingDegradationsCompose is the regression test for the
// last-writer-wins extra-loss bug: a second degrade window's expiry used to
// restore the channel to nominal even while the first window was still
// active. Stacked windows must compose and pop independently.
func TestOverlappingDegradationsCompose(t *testing.T) {
	_, m := lineNetwork(t, 100, 2, idealConfig())
	popA := m.Impair(Impairment{Loss: 0.5})
	popB := m.Impair(Impairment{Loss: 0.5})
	if got := m.Impairment().Loss; got != 0.75 {
		t.Fatalf("two 0.5 windows compose to %v, want 0.75", got)
	}
	popB() // second window expires first
	if got := m.Impairment().Loss; got != 0.5 {
		t.Fatalf("after inner pop Loss = %v, want 0.5 (first window still active)", got)
	}
	popB() // idempotent
	if got := m.Impairment().Loss; got != 0.5 {
		t.Fatalf("double pop changed Loss to %v", got)
	}
	popA()
	if got := m.Impairment().Loss; got != 0 {
		t.Fatalf("all windows popped, Loss = %v, want 0", got)
	}
}

// TestOverlappingImpairmentsCompose states the composition rules kind by
// kind, for an outer window with an inner one pushed and popped inside it:
// one window reads exactly its own values; loss, duplication and asymmetric
// severity combine as independent chances; jitter takes the largest bound;
// the burst model is the latest active one, and the Gilbert–Elliott link
// states reset only when the composed model changes; restores are idempotent.
func TestOverlappingImpairmentsCompose(t *testing.T) {
	burstA := BurstConfig{Loss: 0.8, MeanBad: 100 * time.Millisecond, MeanGood: 300 * time.Millisecond}
	burstB := BurstConfig{Loss: 0.5, MeanBad: 50 * time.Millisecond, MeanGood: 200 * time.Millisecond}
	cases := []struct {
		name         string
		outer, inner Impairment
		both         Impairment // the composition while both windows are active
		resets       bool       // the inner window's push and pop reset the link states
	}{
		{"loss", Impairment{Loss: 0.5}, Impairment{Loss: 0.5}, Impairment{Loss: 0.75}, false},
		{"dup", Impairment{Dup: 0.5}, Impairment{Dup: 0.25}, Impairment{Dup: 0.625}, false},
		{"asym", Impairment{Asym: 0.25}, Impairment{Asym: 0.5}, Impairment{Asym: 0.625}, false},
		{"jitter-outer-larger", Impairment{Jitter: 80 * time.Millisecond}, Impairment{Jitter: 20 * time.Millisecond},
			Impairment{Jitter: 80 * time.Millisecond}, false},
		{"jitter-inner-larger", Impairment{Jitter: 20 * time.Millisecond}, Impairment{Jitter: 80 * time.Millisecond},
			Impairment{Jitter: 80 * time.Millisecond}, false},
		{"burst-latest", Impairment{Burst: burstA}, Impairment{Burst: burstB}, Impairment{Burst: burstB}, true},
		{"burst-same-model", Impairment{Burst: burstA}, Impairment{Burst: burstA}, Impairment{Burst: burstA}, false},
		{"burst-then-jitter", Impairment{Burst: burstA}, Impairment{Jitter: 20 * time.Millisecond},
			Impairment{Burst: burstA, Jitter: 20 * time.Millisecond}, false},
		{"jitter-then-burst", Impairment{Jitter: 20 * time.Millisecond}, Impairment{Burst: burstA},
			Impairment{Burst: burstA, Jitter: 20 * time.Millisecond}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, m := lineNetwork(t, 100, 2, idealConfig())
			want := func(when string, w Impairment) {
				t.Helper()
				if got := m.Impairment(); got != w {
					t.Fatalf("%s: Impairment() = %+v, want %+v", when, got, w)
				}
				if (m.burstLinks != nil) != w.Burst.Enabled() {
					t.Fatalf("%s: link states present = %v with burst model %+v", when, m.burstLinks != nil, w.Burst)
				}
			}
			// A marker link state planted before a step survives it exactly
			// when the step does not reset the Gilbert–Elliott states.
			step := func(when string, do func()) {
				t.Helper()
				const marker = 1<<63 | 1
				before := m.burstLinks
				if before != nil {
					before[marker] = &geLink{}
				}
				do()
				if before != nil && m.burstLinks != nil {
					if _, kept := m.burstLinks[marker]; kept == tc.resets {
						t.Fatalf("%s: link states kept = %v, want %v", when, kept, !tc.resets)
					}
				}
			}

			restoreOuter := m.Impair(tc.outer)
			want("outer alone", tc.outer)
			var restoreInner func()
			step("inner pushed", func() { restoreInner = m.Impair(tc.inner) })
			want("both", tc.both)
			step("inner restored", restoreInner)
			want("inner restored", tc.outer)
			restoreInner()
			want("inner restored twice", tc.outer)
			restoreOuter()
			want("all restored", Impairment{})
			restoreOuter()
			want("all restored twice", Impairment{})
		})
	}
}

// TestActiveDegradationBlocksDelivery drives the composed path through the
// medium: while a near-total window is active, delivery collapses; once the
// last window pops, the channel is nominal again.
func TestActiveDegradationBlocksDelivery(t *testing.T) {
	eng, m := lineNetwork(t, 100, 2, idealConfig())
	var got int
	m.Attach(1, func(*wire.Packet) { got++ })
	popOuter := m.Impair(Impairment{Loss: 0.999})
	popInner := m.Impair(Impairment{Loss: 0.3})
	popInner() // the overlapping inner window expires; outer must keep biting
	const rounds = 50
	for i := 0; i < rounds; i++ {
		m.Broadcast(0, dataPkt(0))
		eng.RunAll()
	}
	if got > rounds/4 {
		t.Fatalf("outer window active but %d/%d delivered", got, rounds)
	}
	popOuter()
	got = 0
	for i := 0; i < rounds; i++ {
		m.Broadcast(0, dataPkt(0))
		eng.RunAll()
	}
	if got != rounds {
		t.Fatalf("restored medium delivered %d/%d", got, rounds)
	}
}

// TestBurstLossIsBursty: with total loss in the bad state and dwell times
// much longer than the inter-frame spacing, losses arrive in runs, not
// independently — and every loss is accounted to BurstLosses.
func TestBurstLossIsBursty(t *testing.T) {
	eng, m := lineNetwork(t, 100, 2, idealConfig())
	var times []time.Duration
	m.Attach(1, func(*wire.Packet) { times = append(times, eng.Now()) })
	m.Impair(Impairment{Burst: BurstConfig{Loss: 1, MeanBad: 200 * time.Millisecond, MeanGood: 200 * time.Millisecond}})
	const trials = 1000
	for i := 0; i < trials; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		eng.At(at, func() { m.Broadcast(0, dataPkt(0)) })
	}
	eng.RunAll()
	st := m.Stats()
	if st.BurstLosses == 0 {
		t.Fatal("no burst losses under an active burst model")
	}
	if st.Deliveries == 0 {
		t.Fatal("burst model killed every frame; good state never held")
	}
	if st.Deliveries+st.BurstLosses != trials {
		t.Fatalf("Deliveries(%d) + BurstLosses(%d) != %d frames", st.Deliveries, st.BurstLosses, trials)
	}
	// Burstiness: count loss runs. Independent losses at the observed rate
	// would flip between loss and delivery far more often than a chain with
	// 200 ms dwell sampled every 5 ms.
	lost := make([]bool, 0, trials)
	ti := 0
	for i := 0; i < trials; i++ {
		// Delivery times are ordered; match them to send slots.
		gotIt := ti < len(times) && times[ti] < time.Duration(i+1)*5*time.Millisecond
		if gotIt {
			ti++
		}
		lost = append(lost, !gotIt)
	}
	flips := 0
	for i := 1; i < len(lost); i++ {
		if lost[i] != lost[i-1] {
			flips++
		}
	}
	// ~50% marginal loss: independent drops would flip ≈ trials/2 times.
	// A 200 ms dwell chain flips ≈ trials*5ms/200ms*2 ≈ 50 times.
	if flips > trials/4 {
		t.Fatalf("losses look independent: %d flips in %d frames", flips, trials)
	}
}

// TestBurstLossReplaysBitIdentical: two engines with the same seed produce
// identical delivery schedules under the burst model.
func TestBurstLossReplaysBitIdentical(t *testing.T) {
	run := func() []time.Duration {
		eng, m := lineNetwork(t, 100, 2, idealConfig())
		var times []time.Duration
		m.Attach(1, func(*wire.Packet) { times = append(times, eng.Now()) })
		m.Impair(Impairment{
			Burst:  BurstConfig{Loss: 0.9, MeanBad: 50 * time.Millisecond, MeanGood: 100 * time.Millisecond},
			Jitter: 2 * time.Millisecond,
			Dup:    0.2,
			Asym:   0.5,
		})
		for i := 0; i < 300; i++ {
			at := time.Duration(i) * 5 * time.Millisecond
			eng.At(at, func() { m.Broadcast(0, dataPkt(0)) })
		}
		eng.RunAll()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay length differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at delivery %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestJitterDefersDeliveryWithinBound: deliveries land after the nominal
// arrival instant but within the configured bound.
func TestJitterDefersDeliveryWithinBound(t *testing.T) {
	eng, m := lineNetwork(t, 100, 2, idealConfig())
	const maxJitter = 10 * time.Millisecond
	m.Impair(Impairment{Jitter: maxJitter})
	var at []time.Duration
	m.Attach(1, func(*wire.Packet) { at = append(at, eng.Now()) })
	nominal := m.cfg.PropDelay + m.Airtime(dataPkt(0).AirSize())
	const trials = 100
	for i := 0; i < trials; i++ {
		t0 := time.Duration(i) * 20 * time.Millisecond
		eng.At(t0, func() { m.Broadcast(0, dataPkt(0)) })
	}
	eng.RunAll()
	if len(at) != trials {
		t.Fatalf("delivered %d/%d", len(at), trials)
	}
	spread := false
	for i, got := range at {
		t0 := time.Duration(i) * 20 * time.Millisecond
		d := got - t0 - nominal
		if d < 0 || d >= maxJitter {
			t.Fatalf("frame %d jitter %v outside [0,%v)", i, d, maxJitter)
		}
		if d > 0 {
			spread = true
		}
	}
	if !spread {
		t.Fatal("jitter enabled but every delivery landed at the nominal instant")
	}
}

// TestDuplicationDeliversTwiceAndCounts: near-certain duplication doubles
// deliveries and accounts every extra frame in DupFrames.
func TestDuplicationDeliversTwiceAndCounts(t *testing.T) {
	eng, m := lineNetwork(t, 100, 2, idealConfig())
	m.Impair(Impairment{Dup: 1}) // clamped to 0.999
	var got int
	m.Attach(1, func(*wire.Packet) { got++ })
	const trials = 200
	for i := 0; i < trials; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		eng.At(at, func() { m.Broadcast(0, dataPkt(0)) })
	}
	eng.RunAll()
	st := m.Stats()
	if st.DupFrames == 0 || uint64(got) != st.Deliveries || st.Deliveries != trials+st.DupFrames {
		t.Fatalf("got %d callbacks, Deliveries=%d, DupFrames=%d over %d frames",
			got, st.Deliveries, st.DupFrames, trials)
	}
	if st.DupFrames < trials*9/10 {
		t.Fatalf("0.999 duplication produced only %d/%d duplicates", st.DupFrames, trials)
	}
}

// TestAsymmetricDegradationIsDirectional: the per-link hash gives the two
// directions of a link distinct loss probabilities from seed alone.
func TestAsymmetricDegradationIsDirectional(t *testing.T) {
	eng, m := lineNetwork(t, 100, 2, idealConfig())
	if m.hash01(0, 1) == m.hash01(1, 0) {
		t.Fatal("ordered-link hash is symmetric")
	}
	h := m.hash01(0, 1)
	if h < 0 || h >= 1 {
		t.Fatalf("hash01 = %v outside [0,1)", h)
	}
	m.Impair(Impairment{Asym: 1})
	var fwd, rev int
	m.Attach(0, func(*wire.Packet) { rev++ })
	m.Attach(1, func(*wire.Packet) { fwd++ })
	const trials = 300
	for i := 0; i < trials; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		eng.At(at, func() { m.Broadcast(0, dataPkt(0)) })
		eng.At(at+5*time.Millisecond, func() { m.Broadcast(1, dataPkt(1)) })
	}
	eng.RunAll()
	if m.Stats().AsymLosses == 0 {
		t.Fatal("severity-1 asymmetric degradation dropped nothing")
	}
	if fwd+rev == 0 {
		t.Fatal("asymmetric degradation killed both directions entirely")
	}
	wantFwd := float64(trials) * (1 - m.hash01(0, 1))
	wantRev := float64(trials) * (1 - m.hash01(1, 0))
	if diff := float64(fwd) - wantFwd; diff < -60 || diff > 60 {
		t.Fatalf("forward deliveries %d, want ≈%.0f", fwd, wantFwd)
	}
	if diff := float64(rev) - wantRev; diff < -60 || diff > 60 {
		t.Fatalf("reverse deliveries %d, want ≈%.0f", rev, wantRev)
	}
}

// TestHostileChannelConservation is the satellite property test: with burst
// loss, duplication, jitter, asymmetric degradation, fringe decay, base
// noise, collisions and half-duplex drops all composed, every scheduled
// reception is accounted to exactly one outcome:
//
//	receptions == Collisions + HalfDuplexDrop + FringeLosses
//	            + BurstLosses + AsymLosses + (Deliveries - DupFrames)
func TestHostileChannelConservation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PosUpdate = 0
	cfg.FringeStart = 0.5 // fringe decay active at 187 m
	eng, m := lineNetwork(t, 187, 3, cfg)
	for i := 0; i < 3; i++ {
		m.Attach(wire.NodeID(i), func(*wire.Packet) {})
	}
	m.Impair(Impairment{
		Loss:   0.2,
		Burst:  BurstConfig{Loss: 0.8, MeanBad: 40 * time.Millisecond, MeanGood: 80 * time.Millisecond},
		Jitter: 3 * time.Millisecond,
		Dup:    0.3,
		Asym:   0.6,
	})

	// Node layout: 0 at 0m, 1 at 187m, 2 at 374m. Range 250: links 0↔1 and
	// 1↔2 only, so each broadcast from 0 or 2 schedules one reception and a
	// broadcast from 1 schedules two. Simultaneous edge broadcasts collide
	// at 1; interleaved rounds exercise every loss class.
	var receptions uint64
	const rounds = 400
	for i := 0; i < rounds; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		switch i % 3 {
		case 0: // spaced: one reception
			eng.At(at, func() { m.Broadcast(0, dataPkt(0)) })
			receptions++
		case 1: // middle node: two receptions
			eng.At(at, func() { m.Broadcast(1, dataPkt(1)) })
			receptions += 2
		case 2: // simultaneous edges: two receptions, collide at node 1
			eng.At(at, func() { m.Broadcast(0, dataPkt(0)) })
			eng.At(at, func() { m.Broadcast(2, dataPkt(2)) })
			receptions += 2
		}
	}
	eng.RunAll()
	st := m.Stats()
	accounted := st.Collisions + st.HalfDuplexDrop + st.FringeLosses +
		st.BurstLosses + st.AsymLosses + (st.Deliveries - st.DupFrames)
	if accounted != receptions {
		t.Fatalf("conservation violated: %d receptions but %d accounted (%+v)",
			receptions, accounted, st)
	}
	for name, v := range map[string]uint64{
		"Collisions": st.Collisions, "FringeLosses": st.FringeLosses,
		"BurstLosses": st.BurstLosses, "AsymLosses": st.AsymLosses,
		"DupFrames": st.DupFrames, "Deliveries": st.Deliveries,
	} {
		if v == 0 {
			t.Errorf("loss class %s never exercised", name)
		}
	}
}
