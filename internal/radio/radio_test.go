package radio

import (
	"slices"
	"testing"
	"time"

	"bbcast/internal/alloctest"
	"bbcast/internal/geo"
	"bbcast/internal/mobility"
	"bbcast/internal/sim"
	"bbcast/internal/wire"
)

// idealConfig removes stochastic losses so tests are exact, and disables the
// periodic position updater (static topologies) so eng.RunAll terminates.
func idealConfig() Config {
	cfg := DefaultConfig()
	cfg.BaseLoss = 0
	cfg.FringeStart = 1
	cfg.PosUpdate = 0
	return cfg
}

func lineNetwork(t *testing.T, spacing float64, n int, cfg Config) (*sim.Engine, *Medium) {
	t.Helper()
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * spacing, Y: 0}
	}
	eng := sim.New(1)
	model := mobility.NewStatic(geo.Rect{W: spacing * float64(n), H: 10}, pts)
	return eng, New(eng, model, n, cfg)
}

func dataPkt(sender wire.NodeID) *wire.Packet {
	return &wire.Packet{
		Kind: wire.KindData, Sender: sender, TTL: 1, Target: wire.NoNode,
		Origin: sender, Seq: 1, Payload: []byte("payload"),
	}
}

func TestDeliveryWithinRange(t *testing.T) {
	eng, m := lineNetwork(t, 100, 3, idealConfig()) // range 250: node0 reaches 1 and 2
	got := map[wire.NodeID]int{}
	for i := 0; i < 3; i++ {
		id := wire.NodeID(i)
		m.Attach(id, func(p *wire.Packet) { got[id]++ })
	}
	m.Broadcast(0, dataPkt(0))
	eng.RunAll()
	if got[1] != 1 || got[2] != 1 {
		t.Fatalf("deliveries = %v, want nodes 1 and 2 to receive once", got)
	}
	if got[0] != 0 {
		t.Fatal("sender received its own frame")
	}
}

func TestNoDeliveryBeyondRange(t *testing.T) {
	eng, m := lineNetwork(t, 300, 2, idealConfig()) // 300 m apart, range 250
	received := false
	m.Attach(1, func(p *wire.Packet) { received = true })
	m.Broadcast(0, dataPkt(0))
	eng.RunAll()
	if received {
		t.Fatal("frame delivered beyond transmission range")
	}
	if m.Stats().Transmissions != 1 {
		t.Fatalf("Transmissions = %d, want 1", m.Stats().Transmissions)
	}
}

// TestDeliveryHandsOverTheSentFrame pins the delivery contract: every
// receiver, on the immediate and the jitter-deferred path alike, is handed
// the very packet that was broadcast (immutable_test.go guards the other half
// of the contract, that nobody writes to it).
func TestDeliveryHandsOverTheSentFrame(t *testing.T) {
	for _, jitter := range []time.Duration{0, 5 * time.Millisecond} {
		eng, m := lineNetwork(t, 100, 3, idealConfig())
		m.Impair(Impairment{Jitter: jitter})
		var got []*wire.Packet
		for i := 1; i < 3; i++ {
			m.Attach(wire.NodeID(i), func(p *wire.Packet) { got = append(got, p) })
		}
		sent := dataPkt(0)
		m.Broadcast(0, sent)
		eng.RunAll()
		if len(got) != 2 || got[0] != sent || got[1] != sent {
			t.Fatalf("jitter %v: deliveries %v, want the sent packet %p twice", jitter, got, sent)
		}
	}
}

// TestDeliveryDoesNotAllocate is the radio's allocation ceiling: putting a
// frame on the air and handing it to a receiver reuses pooled records and the
// sender's own packet.
func TestDeliveryDoesNotAllocate(t *testing.T) {
	eng, m := lineNetwork(t, 100, 2, idealConfig())
	delivered := 0
	m.Attach(1, func(*wire.Packet) { delivered++ })
	pkts := make([]*wire.Packet, 102) // a packet is broadcast once: one per run
	for i := range pkts {
		pkts[i] = dataPkt(0)
	}
	next := 0
	transmit := func() {
		m.Broadcast(0, pkts[next])
		next++
		eng.RunAll()
	}
	transmit() // warm the reception, batch and event pools
	alloctest.AtMost(t, 0, transmit)
	if delivered != next {
		t.Fatalf("%d deliveries for %d transmissions", delivered, next)
	}
}

func TestCollisionAtCommonReceiver(t *testing.T) {
	// Nodes 0 and 2 both in range of 1; simultaneous transmissions collide
	// at 1 (the paper's §2 example).
	eng, m := lineNetwork(t, 200, 3, idealConfig())
	delivered := 0
	m.Attach(1, func(p *wire.Packet) { delivered++ })
	m.Broadcast(0, dataPkt(0))
	m.Broadcast(2, dataPkt(2))
	eng.RunAll()
	if delivered != 0 {
		t.Fatalf("receiver got %d frames despite collision", delivered)
	}
	if m.Stats().Collisions != 2 {
		t.Fatalf("Collisions = %d, want 2", m.Stats().Collisions)
	}
}

func TestNoCollisionWhenSpacedInTime(t *testing.T) {
	eng, m := lineNetwork(t, 200, 3, idealConfig())
	delivered := 0
	m.Attach(1, func(p *wire.Packet) { delivered++ })
	m.Broadcast(0, dataPkt(0))
	// Second transmission after the first fully drains.
	eng.After(10*time.Millisecond, func() { m.Broadcast(2, dataPkt(2)) })
	eng.RunAll()
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2", delivered)
	}
}

func TestHiddenTerminalDoesNotCorruptOutOfRangeReceiver(t *testing.T) {
	// 0 -- 1 -- 2 -- 3 line, 200 m spacing: 0's frame reaches 1 only;
	// 3's frame reaches 2 only. No common receiver => no collision.
	eng, m := lineNetwork(t, 200, 4, idealConfig())
	got := map[wire.NodeID]int{}
	for i := 0; i < 4; i++ {
		id := wire.NodeID(i)
		m.Attach(id, func(p *wire.Packet) { got[id]++ })
	}
	m.Broadcast(0, dataPkt(0))
	m.Broadcast(3, dataPkt(3))
	eng.RunAll()
	if got[1] != 1 || got[2] != 1 {
		t.Fatalf("deliveries = %v; disjoint receivers should both receive", got)
	}
}

func TestHalfDuplexReceiverTransmitting(t *testing.T) {
	eng, m := lineNetwork(t, 100, 2, idealConfig())
	delivered := 0
	m.Attach(0, func(p *wire.Packet) { delivered++ })
	m.Attach(1, func(p *wire.Packet) { delivered++ })
	// Both transmit at once: each is deaf while transmitting... and in fact
	// the frames also overlap at each receiver? No: each node receives only
	// the other's frame (one ongoing reception each), so no collision; the
	// half-duplex rule is what kills delivery.
	m.Broadcast(0, dataPkt(0))
	m.Broadcast(1, dataPkt(1))
	eng.RunAll()
	if delivered != 0 {
		t.Fatalf("delivered = %d, want 0 (half duplex)", delivered)
	}
	if m.Stats().HalfDuplexDrop != 2 {
		t.Fatalf("HalfDuplexDrop = %d, want 2", m.Stats().HalfDuplexDrop)
	}
}

func TestBusyCarrierSense(t *testing.T) {
	eng, m := lineNetwork(t, 100, 3, idealConfig())
	if m.Busy(1) {
		t.Fatal("channel busy before any transmission")
	}
	m.Broadcast(0, dataPkt(0))
	busyDuringTx := false
	// Probe shortly after the transmission begins (prop delay 5µs, airtime
	// for a small frame at 2 Mb/s is ~hundreds of µs).
	eng.After(50*time.Microsecond, func() { busyDuringTx = m.Busy(1) })
	eng.RunAll()
	if !busyDuringTx {
		t.Fatal("receiver did not sense ongoing transmission")
	}
	if m.Busy(1) {
		t.Fatal("channel still busy after all frames drained")
	}
}

func TestBusyWhileSelfTransmitting(t *testing.T) {
	eng, m := lineNetwork(t, 100, 2, idealConfig())
	m.Broadcast(0, dataPkt(0))
	busy := false
	eng.After(10*time.Microsecond, func() { busy = m.Busy(0) })
	eng.RunAll()
	if !busy {
		t.Fatal("transmitter does not sense itself busy")
	}
}

func TestFringeLossProbabilistic(t *testing.T) {
	cfg := idealConfig()
	cfg.FringeStart = 0.5 // decay from 125 m to 250 m
	eng, m := lineNetwork(t, 187, 2, cfg)
	// distance 187 m: p ≈ 1 - (187-125)/125 ≈ 0.5
	delivered := 0
	m.Attach(1, func(p *wire.Packet) { delivered++ })
	const trials = 400
	for i := 0; i < trials; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		eng.At(at, func() { m.Broadcast(0, dataPkt(0)) })
	}
	eng.RunAll()
	if delivered < trials/4 || delivered > trials*3/4 {
		t.Fatalf("fringe delivery = %d/%d, want roughly half", delivered, trials)
	}
}

func TestBaseLossProbabilistic(t *testing.T) {
	cfg := idealConfig()
	cfg.BaseLoss = 0.3
	eng, m := lineNetwork(t, 50, 2, cfg)
	delivered := 0
	m.Attach(1, func(p *wire.Packet) { delivered++ })
	const trials = 500
	for i := 0; i < trials; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		eng.At(at, func() { m.Broadcast(0, dataPkt(0)) })
	}
	eng.RunAll()
	got := float64(delivered) / trials
	if got < 0.6 || got > 0.8 {
		t.Fatalf("delivery rate %.2f, want ≈0.7", got)
	}
}

func TestNeighborsGroundTruth(t *testing.T) {
	_, m := lineNetwork(t, 200, 4, idealConfig())
	nbrs := m.Neighbors(1)
	want := []wire.NodeID{0, 2}
	if len(nbrs) != len(want) || nbrs[0] != want[0] || nbrs[1] != want[1] {
		t.Fatalf("Neighbors(1) = %v, want %v", nbrs, want)
	}
}

// TestNeighborListsFollowEveryTopologyChange: the cached lists are
// recomputed after each mutator that changes the topology. Every list is read
// before each change, so a mutator that left the epoch alone would hand out
// the stale cache.
func TestNeighborListsFollowEveryTopologyChange(t *testing.T) {
	cfg := idealConfig()
	cfg.FringeStart = 0.5 // solid links up to 125 m, range 250 m
	_, m := lineNetwork(t, 100, 3, cfg)
	type lists struct{ near, solid [3][]wire.NodeID }
	read := func() (l lists) {
		for i := range l.near {
			l.near[i] = slices.Clone(m.Neighbors(wire.NodeID(i)))
			l.solid[i] = slices.Clone(m.SolidNeighbors(wire.NodeID(i)))
		}
		return l
	}
	ids := func(v ...wire.NodeID) []wire.NodeID { return v }
	initial := lists{
		near:  [3][]wire.NodeID{ids(1, 2), ids(0, 2), ids(0, 1)},
		solid: [3][]wire.NodeID{ids(1), ids(0, 2), ids(1)},
	}
	steps := []struct {
		name   string
		change func()
		want   lists
	}{
		{"initial", func() {}, initial},
		{"SetDown(2, true)", func() { m.SetDown(2, true) }, lists{
			near:  [3][]wire.NodeID{ids(1), ids(0), nil},
			solid: [3][]wire.NodeID{ids(1), ids(0), nil},
		}},
		{"SetDown(2, false)", func() { m.SetDown(2, false) }, initial},
		{"SetPartition", func() { m.SetPartition([][]wire.NodeID{{0}}) }, lists{
			near:  [3][]wire.NodeID{{}, ids(2), ids(1)},
			solid: [3][]wire.NodeID{{}, ids(2), ids(1)},
		}},
		{"Heal", m.Heal, initial},
	}
	for _, step := range steps {
		read()
		step.change()
		got := read()
		for i := range got.near {
			if !slices.Equal(got.near[i], step.want.near[i]) || !slices.Equal(got.solid[i], step.want.solid[i]) ||
				(got.near[i] == nil) != (step.want.near[i] == nil) || (got.solid[i] == nil) != (step.want.solid[i] == nil) {
				t.Errorf("after %s: node %d has %v, solid %v; want %v, solid %v",
					step.name, i, got.near[i], got.solid[i], step.want.near[i], step.want.solid[i])
			}
		}
	}

	// A position refresh that moves a node: node 1 walks away from node 0 at
	// 100 m/s from x=100.
	eng := sim.New(1)
	cfg.PosUpdate = 100 * time.Millisecond
	moving := New(eng, &movingModel{area: geo.Rect{W: 2000, H: 10}}, 2, cfg)
	defer moving.Close()
	for _, at := range []struct {
		t           time.Duration
		near, solid []wire.NodeID
	}{
		{0, ids(1), ids(1)},
		{500 * time.Millisecond, ids(1), ids()}, // x=150
		{2 * time.Second, ids(), ids()},         // x=300
	} {
		moving.Neighbors(0)
		moving.SolidNeighbors(0)
		eng.Run(at.t)
		if got, solid := moving.Neighbors(0), moving.SolidNeighbors(0); !slices.Equal(got, at.near) || !slices.Equal(solid, at.solid) {
			t.Errorf("at %v: node 0 has %v, solid %v; want %v, solid %v", at.t, got, solid, at.near, at.solid)
		}
	}
}

// TestNeighborsDoesNotAllocate: within one topology epoch the lists come
// from the cache, so the invariant checker's walk at every injection costs
// no allocation.
func TestNeighborsDoesNotAllocate(t *testing.T) {
	_, m := lineNetwork(t, 100, 8, idealConfig())
	walk := func() {
		for i := wire.NodeID(0); i < 8; i++ {
			m.Neighbors(i)
			m.SolidNeighbors(i)
		}
	}
	alloctest.AtMost(t, 0, walk)
}

func TestMobilityUpdatesTopology(t *testing.T) {
	// A node walking away stops receiving.
	area := geo.Rect{W: 2000, H: 10}
	eng := sim.New(1)
	// Node 1 moves right at 100 m/s starting from x=100.
	model := &movingModel{area: area}
	cfg := idealConfig()
	cfg.PosUpdate = 100 * time.Millisecond
	m := New(eng, model, 2, cfg)
	delivered := 0
	m.Attach(1, func(p *wire.Packet) { delivered++ })
	m.Broadcast(0, dataPkt(0)) // in range now
	eng.Run(time.Second)
	if delivered != 1 {
		t.Fatalf("initial delivery failed: %d", delivered)
	}
	// After 5 s node 1 is at x=600 > 250 m away.
	eng.At(5*time.Second, func() { m.Broadcast(0, dataPkt(0)) })
	eng.Run(10 * time.Second)
	if delivered != 1 {
		t.Fatalf("delivered = %d; node out of range should not receive", delivered)
	}
	m.Close()
}

// movingModel: node 0 fixed at origin; node 1 moves +x at 100 m/s from x=100.
type movingModel struct{ area geo.Rect }

func (m *movingModel) Pos(id uint32, t time.Duration) geo.Point {
	if id == 0 {
		return geo.Point{X: 0, Y: 0}
	}
	return geo.Point{X: 100 + 100*t.Seconds(), Y: 0}
}

func (m *movingModel) Area() geo.Rect { return m.area }

func TestAirtimeScalesWithSize(t *testing.T) {
	_, m := lineNetwork(t, 100, 2, idealConfig())
	small := m.Airtime(100)
	big := m.Airtime(1000)
	if big <= small {
		t.Fatalf("airtime(1000)=%v <= airtime(100)=%v", big, small)
	}
	// 1000 bytes at 2 Mb/s = 4 ms.
	want := 4 * time.Millisecond
	if big < want-time.Microsecond || big > want+time.Microsecond {
		t.Fatalf("airtime(1000) = %v, want ≈%v", big, want)
	}
}

func TestStatsCounting(t *testing.T) {
	eng, m := lineNetwork(t, 100, 2, idealConfig())
	m.Attach(1, func(p *wire.Packet) {})
	m.Broadcast(0, dataPkt(0))
	eng.RunAll()
	st := m.Stats()
	if st.Transmissions != 1 || st.Deliveries != 1 || st.BytesOnAir == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOnTransmitHook(t *testing.T) {
	eng, m := lineNetwork(t, 100, 2, idealConfig())
	var hookFrom wire.NodeID = wire.NoNode
	m.OnTransmit = func(from wire.NodeID, pkt *wire.Packet) { hookFrom = from }
	m.Broadcast(0, dataPkt(0))
	eng.RunAll()
	if hookFrom != 0 {
		t.Fatalf("OnTransmit saw %v, want 0", hookFrom)
	}
}

func TestCaptureEffectCloserFrameSurvives(t *testing.T) {
	// Nodes 0 and 2 transmit simultaneously; receiver 1 sits 10 m from 0
	// and 190 m from 2. With capture at ratio 0.5 the near frame survives.
	cfg := idealConfig()
	cfg.CaptureRatio = 0.5
	eng := sim.New(1)
	model := mobility.NewStatic(geo.Rect{W: 300, H: 10}, []geo.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 200, Y: 0},
	})
	m := New(eng, model, 3, cfg)
	var got []wire.NodeID
	m.Attach(1, func(p *wire.Packet) { got = append(got, p.Sender) })
	m.Broadcast(0, dataPkt(0))
	m.Broadcast(2, dataPkt(2))
	eng.RunAll()
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("capture: received from %v, want only the near sender 0", got)
	}
	if m.Stats().Collisions != 1 {
		t.Fatalf("Collisions = %d, want 1 (the far frame)", m.Stats().Collisions)
	}
}

func TestCaptureEffectComparableDistancesBothDie(t *testing.T) {
	cfg := idealConfig()
	cfg.CaptureRatio = 0.5
	eng := sim.New(1)
	model := mobility.NewStatic(geo.Rect{W: 400, H: 10}, []geo.Point{
		{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 210, Y: 0},
	})
	m := New(eng, model, 3, cfg)
	delivered := 0
	m.Attach(1, func(p *wire.Packet) { delivered++ })
	m.Broadcast(0, dataPkt(0)) // 100 m away
	m.Broadcast(2, dataPkt(2)) // 110 m away: ratio ≈ 0.91 > 0.5
	eng.RunAll()
	if delivered != 0 {
		t.Fatalf("comparable-strength overlap delivered %d frames", delivered)
	}
}

func TestCaptureDisabledByDefault(t *testing.T) {
	cfg := idealConfig() // CaptureRatio zero
	eng := sim.New(1)
	model := mobility.NewStatic(geo.Rect{W: 300, H: 10}, []geo.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 200, Y: 0},
	})
	m := New(eng, model, 3, cfg)
	delivered := 0
	m.Attach(1, func(p *wire.Packet) { delivered++ })
	m.Broadcast(0, dataPkt(0))
	m.Broadcast(2, dataPkt(2))
	eng.RunAll()
	if delivered != 0 {
		t.Fatalf("capture disabled but %d frames survived an overlap", delivered)
	}
}

func TestDownNodeNeitherSendsNorReceives(t *testing.T) {
	eng, m := lineNetwork(t, 100, 3, idealConfig())
	var got []wire.NodeID
	for i := 0; i < 3; i++ {
		id := wire.NodeID(i)
		m.Attach(id, func(*wire.Packet) { got = append(got, id) })
	}
	m.SetDown(1, true)
	if !m.IsDown(1) || m.IsDown(0) {
		t.Fatal("IsDown wrong")
	}
	m.Broadcast(0, dataPkt(0))
	eng.RunAll()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("want only node 2 to receive, got %v", got)
	}
	got = nil
	m.Broadcast(1, dataPkt(1))
	eng.RunAll()
	if len(got) != 0 {
		t.Fatalf("down node transmitted: %v", got)
	}
	m.SetDown(1, false)
	m.Broadcast(0, dataPkt(0))
	eng.RunAll()
	if len(got) != 2 {
		t.Fatalf("recovered node silent, got %v", got)
	}
}

func TestDownNodeExcludedFromNeighbors(t *testing.T) {
	_, m := lineNetwork(t, 100, 3, idealConfig())
	m.SetDown(1, true)
	if nbs := m.Neighbors(1); nbs != nil {
		t.Fatalf("down node has neighbours: %v", nbs)
	}
	for _, nb := range m.Neighbors(0) {
		if nb == 1 {
			t.Fatal("down node listed as a neighbour")
		}
	}
}

func TestPartitionBlocksCrossGroupFrames(t *testing.T) {
	eng, m := lineNetwork(t, 100, 4, idealConfig())
	var got []wire.NodeID
	for i := 0; i < 4; i++ {
		id := wire.NodeID(i)
		m.Attach(id, func(*wire.Packet) { got = append(got, id) })
	}
	// Nodes 0,1 in a named group; 2,3 in the implicit remainder group.
	m.SetPartition([][]wire.NodeID{{0, 1}})
	m.Broadcast(1, dataPkt(1))
	eng.RunAll()
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("partition leaked: %v", got)
	}
	for _, nb := range m.Neighbors(1) {
		if nb == 2 {
			t.Fatal("cross-partition neighbour listed")
		}
	}
	got = nil
	m.Heal()
	m.Broadcast(1, dataPkt(1))
	eng.RunAll()
	if len(got) != 3 {
		t.Fatalf("heal did not restore links: %v", got)
	}
}

func TestCrashLosesInFlightFrames(t *testing.T) {
	eng, m := lineNetwork(t, 100, 2, idealConfig())
	var got int
	m.Attach(1, func(*wire.Packet) { got++ })
	m.Broadcast(0, dataPkt(0))
	// Crash the receiver while the frame is on the air.
	m.SetDown(1, true)
	eng.RunAll()
	if got != 0 {
		t.Fatal("frame delivered to a node that crashed mid-flight")
	}
}

func TestExtraLossDegradesDelivery(t *testing.T) {
	cfg := idealConfig()
	eng, m := lineNetwork(t, 100, 2, cfg)
	var got int
	m.Attach(1, func(*wire.Packet) { got++ })
	restore := m.Impair(Impairment{Loss: 1.0}) // clamped just below 1: almost everything drops
	if loss := m.Impairment().Loss; loss <= 0 || loss >= 1 {
		t.Fatalf("Loss = %v", loss)
	}
	const rounds = 50
	for i := 0; i < rounds; i++ {
		m.Broadcast(0, dataPkt(0))
		eng.RunAll()
	}
	degraded := got
	if degraded > rounds/4 {
		t.Fatalf("0.999 loss delivered %d/%d", degraded, rounds)
	}
	restore()
	got = 0
	for i := 0; i < rounds; i++ {
		m.Broadcast(0, dataPkt(0))
		eng.RunAll()
	}
	if got != rounds {
		t.Fatalf("restored medium delivered %d/%d", got, rounds)
	}
}
