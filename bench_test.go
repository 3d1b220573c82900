package bbcast_test

// The benchmark harness regenerates every experiment table from DESIGN.md
// (whatever internal/experiments registers: E1–E17 and ablations A1–A9 today)
// under BenchmarkExperiments/<id>, plus micro benchmarks for the hot substrate
// paths (wire codec, signatures, event engine, full simulation throughput).
//
// Experiment benchmarks run the Quick variant of each table per iteration and
// report the row count via b.ReportMetric; run the full-size tables with
// `go run ./cmd/bbexp -all` (EXPERIMENTS.md records those results).

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"bbcast"
	"bbcast/internal/experiments"
	"bbcast/internal/geo"
	"bbcast/internal/mobility"
	"bbcast/internal/radio"
	"bbcast/internal/sim"
	"bbcast/internal/wire"
)

// BenchmarkExperiments regenerates each table of the suite, one sub-benchmark
// per registry id.
func BenchmarkExperiments(b *testing.B) {
	cfg := experiments.Config{Quick: true, Seed: 1}
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			var rows int
			for i := 0; i < b.N; i++ {
				t, _ := experiments.ByID(id, cfg)
				rows = len(t.Rows)
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkSimulatedSecond measures how fast the simulator runs one virtual
// second of the default 75-node scenario (the sims-per-wallclock figure of
// merit for the whole substrate).
func BenchmarkSimulatedSecond(b *testing.B) {
	sc := bbcast.DefaultScenario()
	sc.Duration = time.Duration(b.N) * time.Second
	sc.Workload.End = sc.Duration
	b.ResetTimer()
	if _, err := bbcast.Run(sc); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScenarioSizes measures full-run cost vs. network size.
func BenchmarkScenarioSizes(b *testing.B) {
	for _, n := range []int{25, 50, 100, 200} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc := bbcast.DefaultScenario()
				sc.N = n
				sc.Workload.End = 25 * time.Second
				sc.Duration = 30 * time.Second
				res, err := bbcast.Run(sc)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.DeliveryRatio, "delivery")
			}
		})
	}
}

func samplePacket() *wire.Packet {
	return &wire.Packet{
		Kind: wire.KindData, Sender: 7, TTL: 1, Target: wire.NoNode,
		Origin: 3, Seq: 41,
		Payload: make([]byte, 256),
		Sig:     make([]byte, 32),
		State: &wire.OverlayState{
			Active: true, Dominator: true,
			Neighbors:          []wire.NodeID{1, 2, 3, 4, 5, 6, 7, 8},
			ActiveNeighbors:    []wire.NodeID{2, 5},
			DominatorNeighbors: []wire.NodeID{5},
		},
		StateSig: make([]byte, 32),
	}
}

func BenchmarkWireMarshal(b *testing.B) {
	pkt := samplePacket()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = pkt.Marshal()
	}
}

func BenchmarkWireUnmarshal(b *testing.B) {
	buf := samplePacket().Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireClone(b *testing.B) {
	pkt := samplePacket()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = pkt.Clone()
	}
}

func BenchmarkHMACSign(b *testing.B) {
	keys := bbcast.NewHMACKeyring(4, 1)
	msg := make([]byte, 264)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = keys.Sign(1, msg)
	}
}

func BenchmarkHMACVerify(b *testing.B) {
	keys := bbcast.NewHMACKeyring(4, 1)
	msg := make([]byte, 264)
	tag := keys.Sign(1, msg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !keys.Verify(1, msg, tag) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkEd25519Sign(b *testing.B) {
	keys, err := bbcast.NewEd25519Keyring(4, 1)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 264)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = keys.Sign(1, msg)
	}
}

func BenchmarkEd25519Verify(b *testing.B) {
	keys, err := bbcast.NewEd25519Keyring(4, 1)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 264)
	tag := keys.Sign(1, msg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !keys.Verify(1, msg, tag) {
			b.Fatal("verify failed")
		}
	}
}

// BenchmarkWireRoundTrip measures a full encode+decode cycle and asserts the
// decoded packet re-encodes to identical bytes every iteration, so the
// benchmark doubles as a codec-correctness test.
func BenchmarkWireRoundTrip(b *testing.B) {
	pkt := samplePacket()
	want := pkt.Marshal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := pkt.Marshal()
		got, err := wire.Unmarshal(buf)
		if err != nil {
			b.Fatal(err)
		}
		if len(got.Payload) != len(pkt.Payload) || got.Seq != pkt.Seq {
			b.Fatal("round trip lost fields")
		}
		if i == 0 && !bytes.Equal(buf, want) {
			b.Fatal("marshal not stable")
		}
	}
}

// BenchmarkRadioReception measures the physical layer end to end: one
// broadcast per iteration over a 25-node in-range cluster, running the
// engine until the reception batch resolves. The delivery count doubles as a
// correctness assertion.
func BenchmarkRadioReception(b *testing.B) {
	const n = 25
	eng := sim.New(1)
	area := geo.Rect{W: 500, H: 500}
	pts := make([]geo.Point, n)
	rng := rand.New(rand.NewSource(2))
	for i := range pts {
		pts[i] = geo.Point{X: 200 + rng.Float64()*100, Y: 200 + rng.Float64()*100}
	}
	model := mobility.NewStatic(area, pts)
	cfg := radio.DefaultConfig()
	cfg.PosUpdate = 0 // static placement; skip refresh timers
	m := radio.New(eng, model, n, cfg)
	defer m.Close()
	for i := 0; i < n; i++ {
		m.Attach(wire.NodeID(i), func(*wire.Packet) {})
	}
	pkt := samplePacket()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Broadcast(0, pkt)
		eng.RunAll()
	}
	b.StopTimer()
	st := m.Stats()
	if st.Transmissions != uint64(b.N) {
		b.Fatalf("transmissions = %d, want %d", st.Transmissions, b.N)
	}
	if st.Deliveries == 0 {
		b.Fatal("no deliveries — cluster not in range")
	}
	b.ReportMetric(float64(st.Deliveries)/float64(b.N), "deliveries/op")
}

// BenchmarkSimStep measures the heap pop + dispatch cost in isolation: all
// b.N events are pre-scheduled, then stepped through.
func BenchmarkSimStep(b *testing.B) {
	eng := sim.New(1)
	fired := 0
	fn := func() { fired++ }
	for i := 0; i < b.N; i++ {
		eng.At(time.Duration(i)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for eng.Step() {
	}
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("fired %d of %d events", fired, b.N)
	}
}

func BenchmarkEngineEventThroughput(b *testing.B) {
	eng := sim.New(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < b.N {
			eng.After(time.Microsecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.After(0, tick)
	eng.RunAll()
}
