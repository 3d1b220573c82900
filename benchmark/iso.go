//bbvet:wallclock isolated unit-cost benchmarks: testing.Benchmark times calls into single layers

package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"bbcast/internal/core"
	"bbcast/internal/env"
	"bbcast/internal/fd"
	"bbcast/internal/geo"
	"bbcast/internal/mobility"
	"bbcast/internal/overlay"
	"bbcast/internal/persist"
	"bbcast/internal/radio"
	"bbcast/internal/sig"
	"bbcast/internal/sim"
	"bbcast/internal/wire"
)

const (
	// isoLongBenchtime is what `-iso` gives each time-based benchmark;
	// isoShortBenchtime is what a traced workload run can afford.
	isoLongBenchtime  = time.Second
	isoShortBenchtime = 40 * time.Millisecond
)

// isoRow is one isolated unit cost: a layer's public function called on its
// own, to be multiplied by the deterministic call counts of the ledger.
type isoRow struct {
	Name        string
	Value       float64
	Unit        string
	Samples     int
	AllocsPerOp int64
}

// isoBench is one entry of the table. count > 0 fixes the iteration count
// (state that grows per call must stay on one side of a cap); otherwise the
// benchmark runs for the table's benchtime. perOp divides ns/op (receivers per
// broadcast); allocs reports allocs/op instead of time.
type isoBench struct {
	name   string
	count  int
	perOp  float64
	allocs bool
	fn     func(b *testing.B)
}

var isoInit sync.Once

// runIso runs the whole table.
func runIso(benchtime time.Duration) []isoRow {
	isoInit.Do(testing.Init)
	rows := make([]isoRow, 0, len(isoTable))
	for _, ib := range isoTable {
		bt := benchtime.String()
		if ib.count > 0 {
			bt = fmt.Sprintf("%dx", ib.count)
		}
		// The flag exists once testing.Init has run; a duration or a count
		// in its own syntax cannot be refused.
		_ = flag.Set("test.benchtime", bt)
		r := testing.Benchmark(ib.fn)
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if ib.perOp > 0 {
			ns /= ib.perOp
		}
		unit := unitOf[ib.name]
		value := ns
		switch {
		case ib.allocs:
			value = float64(r.AllocsPerOp())
		case unit == "us":
			value = ns / 1e3
		case unit == "ms":
			value = ns / 1e6
		}
		rows = append(rows, isoRow{Name: ib.name, Value: value, Unit: unit, Samples: r.N, AllocsPerOp: r.AllocsPerOp()})
	}
	return rows
}

func printIsoTable(w io.Writer, rows []isoRow) {
	fmt.Fprintf(w, "%-36s %14s %-7s %10s %12s\n", "metric", "value", "unit", "samples", "allocs/op")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %14.3f %-7s %10d %12d\n", r.Name, r.Value, r.Unit, r.Samples, r.AllocsPerOp)
	}
}

var (
	isoShortOnce sync.Once
	isoShortRows []isoRow
)

// setIso reports every *_iso metric into a traced run's result (measured
// once per process, with the short benchtime) and returns them by name.
func setIso(res *result) map[string]float64 {
	isoShortOnce.Do(func() { isoShortRows = runIso(isoShortBenchtime) })
	byName := make(map[string]float64, len(isoShortRows))
	for _, r := range isoShortRows {
		res.set(r.Name, r.Value)
		byName[r.Name] = r.Value
	}
	return byName
}

// shimCallNS is what one call through the live signature shim costs beyond
// the call it wraps.
func shimCallNS() float64 {
	isoInit.Do(testing.Init)
	_ = flag.Set("test.benchtime", isoShortBenchtime.String())
	msg, tag := make([]byte, 300), make([]byte, 64)
	bare := testing.Benchmark(func(b *testing.B) {
		var s sig.Scheme = acceptAll{}
		for i := 0; i < b.N; i++ {
			s.Verify(1, msg, tag)
		}
	})
	shimmed := testing.Benchmark(func(b *testing.B) {
		var s sig.Scheme = &sigShim{inner: acceptAll{}}
		for i := 0; i < b.N; i++ {
			s.Verify(1, msg, tag)
		}
	})
	per := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	return per(shimmed) - per(bare)
}

// acceptAll is the stub scheme of the handler benchmarks: signature cost is
// its own row, so the handlers are timed without it.
type acceptAll struct{}

func (acceptAll) Sign(uint32, []byte) []byte         { return make([]byte, 32) }
func (acceptAll) Verify(uint32, []byte, []byte) bool { return true }
func (acceptAll) SigSize() int                       { return 32 }
func (acceptAll) Name() string                       { return "accept-all" }

// isoNeighbors is the neighbourhood size of the sample frames and views.
const isoNeighbors = 15

func isoIDs(n int) []wire.NodeID {
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	return ids
}

func isoState() *wire.OverlayState {
	return &wire.OverlayState{
		Active: true, Dominator: true,
		Neighbors: isoIDs(isoNeighbors), ActiveNeighbors: isoIDs(4), DominatorNeighbors: isoIDs(2),
	}
}

// isoDataPacket is a 256 B data frame with a piggy-backed state record.
func isoDataPacket(seq wire.Seq) *wire.Packet {
	return &wire.Packet{
		Kind: wire.KindData, Sender: 1, TTL: 1, Target: wire.NoNode, Origin: 1, Seq: seq,
		Payload: make([]byte, 256), Sig: make([]byte, 32),
		State: isoState(), StateSig: make([]byte, 32),
	}
}

// isoGossipPacket is a 32-entry gossip frame with a piggy-backed state record.
func isoGossipPacket() *wire.Packet {
	entries := make([]wire.GossipEntry, 32)
	for i := range entries {
		entries[i] = wire.GossipEntry{ID: wire.MsgID{Origin: 1, Seq: wire.Seq(i + 1)}, Sig: make([]byte, 32)}
	}
	return &wire.Packet{
		Kind: wire.KindGossip, Sender: 1, TTL: 1, Target: wire.NoNode, Origin: wire.NoNode,
		Gossip: entries, State: isoState(), StateSig: make([]byte, 32),
	}
}

var isoSink any

func benchMarshal(pkt *wire.Packet) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			isoSink = pkt.Marshal()
		}
	}
}

func benchUnmarshal(pkt *wire.Packet) func(*testing.B) {
	return func(b *testing.B) {
		buf := pkt.Marshal()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := wire.Unmarshal(buf)
			if err != nil {
				b.Fatal(err)
			}
			isoSink = p
		}
	}
}

func benchClone(pkt *wire.Packet) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			isoSink = pkt.Clone()
		}
	}
}

// isoProtocol is one core.New on stub Deps: a frozen virtual clock whose
// timers never fire, a Send that drops, a scheme that accepts everything, no
// observer. Admission is off, because with the clock frozen the per-sender
// bucket would refuse everything after its first burst.
func isoProtocol() *core.Protocol {
	cfg := core.DefaultConfig()
	cfg.AdmitRate = 0
	return core.New(cfg, core.Deps{
		ID:      0,
		Clock:   env.SimClock{Eng: sim.New(1)},
		Send:    func(*wire.Packet) {},
		Scheme:  acceptAll{},
		Rand:    rand.New(rand.NewSource(1)),
		Deliver: func(wire.NodeID, wire.MsgID, []byte) {},
	})
}

// benchHandleData handles b.N fresh data frames on a store prefilled with
// prefill messages.
func benchHandleData(prefill int) func(*testing.B) {
	return func(b *testing.B) {
		p := isoProtocol()
		for i := 0; i < prefill; i++ {
			p.HandlePacket(isoDataPacket(wire.Seq(i + 1)))
		}
		pkts := make([]*wire.Packet, b.N)
		for i := range pkts {
			pkts[i] = isoDataPacket(wire.Seq(prefill + i + 1))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for _, pkt := range pkts {
			p.HandlePacket(pkt)
		}
	}
}

func benchHandleDup(b *testing.B) {
	p := isoProtocol()
	pkt := isoDataPacket(1)
	p.HandlePacket(pkt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.HandlePacket(pkt)
	}
}

// benchHandleGossip handles a 32-entry advertisement of messages the node
// already holds — the steady state of every gossip round.
func benchHandleGossip(b *testing.B) {
	p := isoProtocol()
	for i := 0; i < 32; i++ {
		p.HandlePacket(isoDataPacket(wire.Seq(i + 1)))
	}
	pkt := isoGossipPacket()
	p.HandlePacket(pkt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.HandlePacket(pkt)
	}
}

func benchDecide(kind overlay.Kind) func(*testing.B) {
	return func(b *testing.B) {
		view := overlay.View{Self: 0, SelfRole: overlay.Passive}
		for _, id := range isoIDs(isoNeighbors) {
			info := overlay.NeighborInfo{ID: id, Level: fd.Trusted, Neighbors: isoIDs(isoNeighbors)}
			if id%4 == 0 {
				info.Role = overlay.Dominator
				info.ActiveNeighbors = isoIDs(4)
			}
			view.Neighbors = append(view.Neighbors, info)
		}
		overlay.SortView(&view)
		m := overlay.New(kind)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			isoSink = m.Decide(view)
		}
	}
}

func benchEngine(b *testing.B) {
	eng := sim.New(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		eng.After(time.Duration(i)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(time.Millisecond, fn)
		eng.Step()
	}
}

// isoRadioNodes all sit within range of each other, so one broadcast has
// isoRadioNodes-1 receivers.
const isoRadioNodes = 16

func benchRadio(b *testing.B) {
	eng := sim.New(1)
	area := geo.Rect{W: 100, H: 100}
	cfg := radio.DefaultConfig()
	cfg.PosUpdate = 0
	medium := radio.New(eng, mobility.NewGridStatic(area, isoRadioNodes, 0.35, 1), isoRadioNodes, cfg)
	for i := 0; i < isoRadioNodes; i++ {
		medium.Attach(wire.NodeID(i), func(*wire.Packet) {})
	}
	pkt := isoDataPacket(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		medium.Broadcast(0, pkt)
		eng.RunAll()
	}
}

func benchVerify(s sig.Scheme) func(*testing.B) {
	return func(b *testing.B) {
		msg := wire.DataSigBytes(wire.MsgID{Origin: 1, Seq: 1}, make([]byte, 256))
		tag := s.Sign(1, msg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !s.Verify(1, msg, tag) {
				b.Fatal("valid signature refused")
			}
		}
	}
}

func benchSign(s sig.Scheme) func(*testing.B) {
	return func(b *testing.B) {
		msg := wire.DataSigBytes(wire.MsgID{Origin: 1, Seq: 1}, make([]byte, 256))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			isoSink = s.Sign(1, msg)
		}
	}
}

// isoStore opens a persist.Store on a real FileDevice in a fresh directory
// with prefill delivered records, and returns it with its clean-up.
func isoStore(b *testing.B, prefill int) (*persist.Store, *persist.FileDevice, func()) {
	parent, err := liveTmpParent()
	if err != nil {
		b.Fatal(err)
	}
	dir, err := os.MkdirTemp(parent, "iso-")
	if err != nil {
		b.Fatal(err)
	}
	dev, err := persist.OpenDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	st, err := persist.Open(dev)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < prefill; i++ {
		st.RecordDelivered(wire.MsgID{Origin: 1, Seq: wire.Seq(i + 1)}, uint64(i))
	}
	return st, dev, func() {
		dev.Close() //bbvet:errflow benchmark scratch files, removed on the next line
		os.RemoveAll(dir)
	}
}

func benchRecord(prefill int) func(*testing.B) {
	return func(b *testing.B) {
		st, _, cleanup := isoStore(b, prefill)
		defer cleanup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.RecordDelivered(wire.MsgID{Origin: 2, Seq: wire.Seq(i + 1)}, uint64(i))
		}
		b.StopTimer()
		if err := st.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSnapshot(b *testing.B) {
	st, _, cleanup := isoStore(b, persist.DefaultMaxDelivered)
	defer cleanup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchOpenReplay opens a store over a 4096-record log: a restarted node's
// replay cost.
func benchOpenReplay(b *testing.B) {
	_, dev, cleanup := isoStore(b, persist.DefaultMaxDelivered)
	defer cleanup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := persist.Open(dev)
		if err != nil {
			b.Fatal(err)
		}
		isoSink = st
	}
}

var isoTable = func() []isoBench {
	hmac := sig.NewHMAC(4, 1)
	ed, err := sig.NewEd25519(4, 1)
	if err != nil {
		panic(err) // math/rand's Read never fails
	}
	maxStore := core.DefaultConfig().MaxStore
	return []isoBench{
		{name: "sim.event_ns_iso", fn: benchEngine},
		{name: "radio.broadcast_ns_per_rx_iso", perOp: isoRadioNodes - 1, fn: benchRadio},
		{name: "wire.marshal_ns_iso.data", fn: benchMarshal(isoDataPacket(1))},
		{name: "wire.marshal_ns_iso.gossip", fn: benchMarshal(isoGossipPacket())},
		{name: "wire.unmarshal_ns_iso.data", fn: benchUnmarshal(isoDataPacket(1))},
		{name: "wire.unmarshal_ns_iso.gossip", fn: benchUnmarshal(isoGossipPacket())},
		{name: "wire.clone_ns_iso.data", fn: benchClone(isoDataPacket(1))},
		{name: "wire.clone_ns_iso.gossip", fn: benchClone(isoGossipPacket())},
		{name: "wire.clone_allocs_iso.data", allocs: true, fn: benchClone(isoDataPacket(1))},
		{name: "wire.clone_allocs_iso.gossip", allocs: true, fn: benchClone(isoGossipPacket())},
		{name: "sig.verify_us_iso.hmac", fn: benchVerify(hmac)},
		{name: "sig.verify_us_iso.ed25519", fn: benchVerify(ed)},
		{name: "sig.sign_us_iso.ed25519", fn: benchSign(ed)},
		{name: "core.handle_ns_iso.data-new", count: maxStore / 2, fn: benchHandleData(0)},
		{name: "core.handle_ns_iso.data-dup", fn: benchHandleDup},
		{name: "core.handle_ns_iso.gossip-32", fn: benchHandleGossip},
		{name: "core.handle_ns_iso.data-at-cap", count: 256, fn: benchHandleData(maxStore)},
		{name: "overlay.decide_ns_iso.cds", fn: benchDecide(overlay.CDS)},
		{name: "overlay.decide_ns_iso.misb", fn: benchDecide(overlay.MISB)},
		{name: "persist.record_ns_iso.below-cap", count: persist.DefaultMaxDelivered / 2, fn: benchRecord(0)},
		{name: "persist.record_ns_iso.at-cap", count: 256, fn: benchRecord(persist.DefaultMaxDelivered)},
		{name: "persist.snapshot_ms_iso", count: 20, fn: benchSnapshot},
		{name: "persist.open_replay_ms_iso", count: 20, fn: benchOpenReplay},
	}
}()
