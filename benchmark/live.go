//bbvet:wallclock live-substrate harness: a wall-clock load generator and latency recorder around real UDP nodes

package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"bbcast/internal/core"
	"bbcast/internal/obsv"
	"bbcast/internal/sig"
	"bbcast/internal/transport"
	"bbcast/internal/wire"
)

const (
	liveNodes      = 6
	livePayload    = 256
	livePacedRate  = 200.0 // msg/s network-wide, open loop
	liveWindow     = 8     // broadcasts outstanding, closed loop
	liveTimeout    = 2 * time.Second
	liveLateAfter  = time.Millisecond
	liveSatMaxRate = 8000 // msg/s; sizes the accept tables of the saturated phase
	convergeWithin = 20 * time.Second
	// liveFillTo is how many messages the cluster has seen before the
	// saturated phase is measured: one and a half times the store caps.
	liveFillTo = 6144
)

// payloadHeader is sender(4) ‖ k(4) ‖ due-offset-ns(8); filler follows.
const payloadHeader = 16

// acceptSink records what the deliver upcalls of one cluster report. The
// upcalls run on the nodes' goroutines, under each node's lock; everything
// they share with the generator goroutine is atomic.
type acceptSink struct {
	now      func() time.Duration // time since the cluster's epoch
	nodes    int
	peers    int32
	expected []atomic.Pointer[[]byte] // payload injected as message k
	seen     []atomic.Uint32          // accepts of message k at node j, at k*nodes+j
	acks     []atomic.Int32           // peers that accepted message k
	done     chan uint32              // k of each fully accepted message; sized so sends never block

	// lats[j] holds node j's due→accept samples; only node j's upcalls, which
	// its lock serializes, append to it.
	lats [][]time.Duration

	// saturating is set when the closed-loop phase starts. Before it, a
	// second accept of a message at one node is a correctness failure. After
	// it the stores are past their caps, and the program documents that a
	// message evicted from the duplicate filter may be delivered again; those
	// are counted as redeliveries.
	saturating   atomic.Bool
	mismatches   atomic.Int64
	duplicates   atomic.Int64
	redeliveries atomic.Int64
	accepted     atomic.Int64
}

func newAcceptSink(nodes, capacity int) *acceptSink {
	epoch := time.Now()
	return &acceptSink{
		now:      func() time.Duration { return time.Since(epoch) },
		nodes:    nodes,
		peers:    int32(nodes - 1),
		lats:     make([][]time.Duration, nodes),
		expected: make([]atomic.Pointer[[]byte], capacity),
		seen:     make([]atomic.Uint32, capacity*nodes),
		acks:     make([]atomic.Int32, capacity),
		// A completion is sent at most once per message and the generator
		// drains continuously; the table size can never be exceeded.
		done: make(chan uint32, capacity),
	}
}

// deliver is node's accept upcall.
func (s *acceptSink) deliver(node int, payload []byte) {
	now := s.now()
	if len(payload) < payloadHeader {
		s.mismatches.Add(1)
		return
	}
	sender := binary.LittleEndian.Uint32(payload[0:])
	k := binary.LittleEndian.Uint32(payload[4:])
	if int(k) >= len(s.expected) {
		s.mismatches.Add(1)
		return
	}
	want := s.expected[k].Load()
	if want == nil || string(*want) != string(payload) {
		s.mismatches.Add(1)
		return
	}
	if s.seen[int(k)*s.nodes+node].Add(1) > 1 {
		if s.saturating.Load() {
			s.redeliveries.Add(1)
		} else {
			s.duplicates.Add(1)
		}
		return
	}
	if int(sender) == node {
		return // the originator's own delivery is not an operation
	}
	due := time.Duration(binary.LittleEndian.Uint64(payload[8:]))
	s.lats[node] = append(s.lats[node], now-due)
	s.accepted.Add(1)
	if s.acks[k].Add(1) == s.peers {
		select {
		case s.done <- k:
		default:
		}
	}
}

// liveCluster is a set of UDP nodes on loopback in a full mesh, each with a
// file-backed durable store under root.
type liveCluster struct {
	nodes []*transport.UDPNode
	root  string
	sink  *acceptSink
}

func liveConfig() core.Config {
	cfg := core.DefaultConfig()
	// In a clique the single dominator relays every message; at the default
	// 60 frames/s per neighbour the bucket would refuse correct traffic and
	// the run would measure the bucket. It still runs and is charged.
	cfg.AdmitRate = 1e5
	cfg.AdmitBurst = 2e5
	return cfg
}

// startCluster binds the nodes, meshes them and waits until the overlay has
// converged. tmpParent must exist; the cluster's files live in a fresh
// directory under it, removed by Close.
func startCluster(nodes int, scheme sig.Scheme, tmpParent string, sinkCapacity int) (*liveCluster, error) {
	root, err := os.MkdirTemp(tmpParent, "live-")
	if err != nil {
		return nil, err
	}
	c := &liveCluster{root: root, sink: newAcceptSink(nodes, sinkCapacity)}
	addrs := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		node := i
		n, err := transport.NewUDPNodeDir(liveConfig(), wire.NodeID(i), scheme, "127.0.0.1:0",
			filepath.Join(root, fmt.Sprintf("node%d", i)),
			func(_ wire.NodeID, _ wire.MsgID, payload []byte) { c.sink.deliver(node, payload) })
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		addrs[i] = n.Addr().String()
	}
	for i, n := range c.nodes {
		peers := make([]string, 0, nodes-1)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		if err := n.SetPeers(peers); err != nil {
			c.Close()
			return nil, err
		}
	}
	if err := c.waitConverged(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// waitConverged returns once every node's sampled neighbour table holds all
// its peers and the overlay has settled on the clique's single dominator
// (before that, several nodes relay and frames per message read high).
func (c *liveCluster) waitConverged() error {
	gauge := obsv.MetricQueueDepth + `{queue="` + string(obsv.QueueNeighbors) + `"}`
	deadline := time.Now().Add(convergeWithin)
	for time.Now().Before(deadline) {
		full, active := 0, 0
		for _, n := range c.nodes {
			if int(n.Metrics().Gauge(gauge).Value()) >= len(c.nodes)-1 {
				full++
			}
			if n.InOverlay() {
				active++
			}
		}
		if full == len(c.nodes) && active == 1 {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("live cluster did not converge within %s", convergeWithin)
}

// Close stops every node (waiting for its goroutines) and removes the
// cluster's files.
func (c *liveCluster) Close() error {
	var first error
	for _, n := range c.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.nodes = nil
	if err := os.RemoveAll(c.root); err != nil && first == nil {
		first = err
	}
	return first
}

// diskBytes sums the sizes of the nodes' log and snapshot files.
func (c *liveCluster) diskBytes() int64 {
	var total int64
	_ = filepath.Walk(c.root, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// liveGen is the load generator. It runs on one goroutine. The clock (the
// sink's), sleep and broadcast are fields so a test can make it late on
// purpose without a cluster.
type liveGen struct {
	sink      *acceptSink
	broadcast func(sender int, payload []byte)
	rng       *rand.Rand
	next      uint32 // next message index
	sleep     func(time.Duration)

	injected int
	late     int
	maxLate  time.Duration
}

func newLiveGen(c *liveCluster, seed int64) *liveGen {
	return &liveGen{
		sink:      c.sink,
		broadcast: func(sender int, payload []byte) { c.nodes[sender].Broadcast(payload) },
		rng:       rand.New(rand.NewSource(seed)),
		sleep:     preciseSleep,
	}
}

// preciseSleep blocks the calling thread in nanosleep(2). time.Sleep parks
// the goroutine on the runtime's poller, whose timeout is in whole
// milliseconds, so an idle process wakes a 5 ms pacer up to 1 ms late.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// An early return on a signal only makes the pacer re-check the clock.
	_ = syscall.Nanosleep(&ts, nil)
}

// inject broadcasts message k from the next node in round-robin order. due
// is when the message was due; latency is counted from it.
func (g *liveGen) inject(due time.Duration) (uint32, bool) {
	k := g.next
	if int(k) >= len(g.sink.expected) {
		return 0, false
	}
	g.next++
	sender := int(k) % g.sink.nodes
	payload := make([]byte, livePayload)
	binary.LittleEndian.PutUint32(payload[0:], uint32(sender))
	binary.LittleEndian.PutUint32(payload[4:], k)
	binary.LittleEndian.PutUint64(payload[8:], uint64(due))
	g.rng.Read(payload[payloadHeader:])
	g.sink.expected[k].Store(&payload)
	g.broadcast(sender, payload)
	g.injected++
	return k, true
}

// paced is the open-loop phase: one message every 1/rate seconds for dur,
// whatever the cluster does. It returns the index range it injected.
func (g *liveGen) paced(rate float64, dur time.Duration) (from, to uint32) {
	from = g.next
	interval := time.Duration(float64(time.Second) / rate)
	start := g.sink.now()
	for i := 0; ; i++ {
		due := start + time.Duration(i)*interval
		if due-start >= dur {
			break
		}
		for wait := due - g.sink.now(); wait > 0; wait = due - g.sink.now() {
			g.sleep(wait)
		}
		lateness := g.sink.now() - due
		if lateness > g.maxLate {
			g.maxLate = lateness
		}
		if lateness > liveLateAfter {
			g.late++
		}
		if _, ok := g.inject(due); !ok {
			break
		}
	}
	return from, g.next
}

// satWindow is the width of the windows the saturated phase's completions
// are counted in; capacity is the median window's rate, so a stall shorter
// than half the phase does not move it.
const satWindow = 500 * time.Millisecond

// saturated is the closed-loop phase: window broadcasts outstanding until
// stop says so; one completes when every peer accepted it, or is given up
// after liveTimeout. It returns the injected index range, the completions,
// and the completions of each whole satWindow.
func (g *liveGen) saturated(window int, stop func(elapsed time.Duration) bool) (from, to uint32, completed int, perWindow []int) {
	from = g.next
	start := g.sink.now()
	outstanding := make(map[uint32]time.Duration, window)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for !stop(g.sink.now() - start) {
		for len(outstanding) < window {
			at := g.sink.now()
			k, ok := g.inject(at)
			if !ok {
				return from, g.next, completed, perWindow
			}
			outstanding[k] = at
		}
		select {
		case k := <-g.sink.done:
			if _, ok := outstanding[k]; ok {
				delete(outstanding, k)
				completed++
				w := int((g.sink.now() - start) / satWindow)
				for len(perWindow) <= w {
					perWindow = append(perWindow, 0)
				}
				perWindow[w]++
			}
		case <-tick.C:
			now := g.sink.now()
			for k, at := range outstanding {
				if now-at > liveTimeout {
					delete(outstanding, k)
				}
			}
		}
	}
	return from, g.next, completed, perWindow
}

// pairs counts the (message, peer) operations of an index range and how many
// were accepted.
func (s *acceptSink) pairs(from, to uint32) (attempted, accepted int64) {
	for k := from; k < to; k++ {
		attempted += int64(s.peers)
		accepted += int64(s.acks[k].Load())
	}
	return attempted, accepted
}

// liveTmpParent is where the clusters of a benchmark run keep their files:
// inside the checkout, never in the system temp directory.
func liveTmpParent() (string, error) {
	dir := filepath.Join(".bench_build", "tmp")
	return dir, os.MkdirAll(dir, 0o755)
}

func runLiveClique(opts runOpts) (*result, error) {
	tmp, err := liveTmpParent()
	if err != nil {
		return nil, err
	}
	return runLive(opts, tmp)
}

func runLive(opts runOpts, tmp string) (*result, error) {
	res := newResult("live-clique", opts)
	paceDur := opts.seconds / 2
	satDur := opts.seconds * 2 / 5
	drain := opts.seconds / 20
	capacity := int(livePacedRate*paceDur.Seconds()) + liveFillTo + int(liveSatMaxRate*satDur.Seconds())

	// Set-up, setupRepeats times over: keys, bind, mesh, overlay convergence.
	// The last cluster is the one measured.
	var c *liveCluster
	var shim *sigShim
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			if err := c.Close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		base, err := sig.NewEd25519(liveNodes, opts.seed)
		if err != nil {
			return nil, err
		}
		var scheme sig.Scheme = base
		if opts.trace {
			shim = &sigShim{inner: base}
			scheme = shim
		}
		if c, err = startCluster(liveNodes, scheme, tmp, capacity); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer c.Close() // the run's outcome is already decided; leftovers are under tmp

	gen := newLiveGen(c, opts.seed)
	snap0, host0 := snapshotNodes(c), readHost()
	pFrom, pTo := gen.paced(livePacedRate, paceDur)
	time.Sleep(drain)
	snapP, hostP := snapshotNodes(c), readHost()
	pacedCost := hostP.since(host0)
	pacedLats := c.sink.takeLats()

	if n := c.sink.duplicates.Load(); n > 0 {
		res.fail("%d second accepts of a message at one node below the store caps", n)
	}
	// The closed loop first runs unmeasured until the stores are past their
	// caps: below them the cluster completes ≈3500 msg/s, at them ≈1000,
	// and a phase that straddles the two measures when the switch happened.
	c.sink.saturating.Store(true)
	fill := runSatPhase(gen, func(time.Duration) bool { return int(gen.next) >= liveFillTo })
	rt0 := readRuntime()
	busy := runSatPhase(gen, func(elapsed time.Duration) bool { return elapsed >= satDur })
	rt1 := readRuntime()
	time.Sleep(drain)
	snap1, host1 := snapshotNodes(c), readHost()

	pAtt, pAcc := c.sink.pairs(pFrom, pTo)
	sAtt, sAcc := c.sink.pairs(fill.from, busy.to)
	res.Attempted, res.Failed = pAtt+sAtt, (pAtt-pAcc)+(sAtt-sAcc)

	if n := c.sink.mismatches.Load(); n > 0 {
		res.fail("%d accepts whose payload does not match what was injected", n)
	}
	if snap1.stats.BadSignatures > 0 {
		res.fail("%d bad signatures on the live nodes", snap1.stats.BadSignatures)
	}
	if busy.completed == 0 {
		res.fail("saturated phase completed no broadcast")
	}

	lats := durationsToSortedMS(pacedLats)
	injected := float64(gen.injected)
	txFrames := float64(snap1.tx - snap0.tx)
	pacedMsgs := float64(pTo - pFrom)
	res.note("paced: %d msgs, %d accept samples; saturated: %d filling, then %d completed of %d injected in %.2fs, capacity %.0f msg/s (median 0.5 s window); generator max late %.3f ms, late share %.5f, %d redeliveries past the store caps",
		pTo-pFrom, len(lats), fill.to-fill.from, busy.completed, busy.to-busy.from, busy.cost.wall.Seconds(), busy.rate, ms(gen.maxLate), ratio(float64(gen.late), float64(pTo-pFrom)), c.sink.redeliveries.Load())

	if !opts.trace {
		res.set("setup_s", median(setups))
		res.set("delivery_ratio", ratio(float64(pAcc+sAcc), float64(pAtt+sAtt)))
		res.set("lat_p50_ms", quantile(lats, 0.50))
		res.set("lat_tail_ms", quantile(lats, 0.90))
		res.set("tx_per_msg", ratio(float64(snapP.tx-snap0.tx), pacedMsgs))
		res.set("goodput_msgs_per_s", livePacedRate*ratio(float64(pAcc), float64(pAtt)))
		res.set("cpu_ms_per_msg", ratio(ms(pacedCost.cpu), pacedMsgs))
		res.set("allocs_per_msg", ratio(pacedCost.mallocs, pacedMsgs))
		res.set("alloc_kb_per_msg", ratio(pacedCost.bytes/1024, pacedMsgs))
		return res, nil
	}

	// The ledger.
	st := snap1.stats
	res.set("runner.run_wall_ms", ms(busy.cost.wall))
	// The only seam inside the live nodes is the signature shim; what it
	// costs is its call count times its isolated per-call cost.
	shimCalls := float64(shim.signs.Load() + shim.ok.Load() + shim.bad.Load())
	res.set("runner.trace_overhead_pct", 100*ratio(shimCalls*shimCallNS()/1e6, ms(host1.since(host0).cpu)))
	res.set("runner.gc_cpu_share", rt1.gcShare(rt0))
	res.set("runner.peak_rss_mb", peakRSSMiB())
	res.set("runner.lat_p99_ms", quantile(lats, 0.99))
	res.set("runner.lat_samples", float64(len(lats)))
	res.set("runner.sat_goodput_msgs_per_s", busy.rate)
	res.set("sig.signs", float64(shim.signs.Load()))
	res.set("sig.verifies_ok", float64(shim.ok.Load()))
	res.set("sig.verifies_bad", float64(shim.bad.Load()))
	res.set("sig.dedup_skips", float64(st.DedupSkips))
	res.set("sig.verifies_per_accept", ratio(float64(shim.ok.Load()+shim.bad.Load()), float64(c.sink.accepted.Load())))
	res.set("sig.verify_ms", ms(time.Duration(shim.verifyNS.Load())))
	res.set("sig.sign_ms", ms(time.Duration(shim.signNS.Load())))
	setCoreStats(res, st)
	res.set("core.redeliveries", float64(c.sink.redeliveries.Load()))
	res.set("core.duplicate_share", ratio(float64(st.Duplicates), float64(snap1.rxData-snap0.rxData)))
	res.set("overlay.size", float64(snap1.overlay))
	res.set("overlay.role_changes", float64(snap1.roleChanges))
	res.set("fd.suspicions_raised", float64(snap1.suspRaised))
	res.set("fd.suspicions_cleared", float64(snap1.suspCleared))
	res.set("persist.disk_bytes_per_msg", ratio(float64(c.diskBytes()), injected*liveNodes))
	res.set("loadgen.injected", injected)
	res.set("loadgen.max_late_ms", ms(gen.maxLate))
	res.set("loadgen.late_share", ratio(float64(gen.late), float64(pTo-pFrom)))
	res.set("transport.tx_frames", txFrames)
	res.set("transport.rx_frames", float64(snap1.rx-snap0.rx))
	res.set("transport.ingress_drops", float64(snap1.ingressDrops-snap0.ingressDrops))
	res.set("transport.datagrams_per_msg", ratio(txFrames*(liveNodes-1), injected))
	res.set("transport.sigverify_us_p50", snap1.sigP50*1e6)
	res.set("transport.cpu_user_ms", ms(busy.cost.user))
	res.set("transport.cpu_sys_ms", ms(busy.cost.sys))
	res.set("transport.mutex_wait_ms", (rt1.mutexWait-rt0.mutexWait)*1e3)
	res.set("transport.sched_latency_us_p99", rt1.schedP99(rt0)*1e6)
	for kind, name := range frameShareNames {
		res.add("wire.frame_share."+name, ratio(float64(snap1.txByKind[kind]-snap0.txByKind[kind]), txFrames))
	}
	setIso(res)
	return res, nil
}

// satPhase is one stretch of the closed loop.
type satPhase struct {
	from, to  uint32
	completed int
	rate      float64 // msg/s, the median satWindow's
	cost      hostCost
}

func runSatPhase(gen *liveGen, stop func(time.Duration) bool) satPhase {
	before := readHost()
	from, to, completed, perWindow := gen.saturated(liveWindow, stop)
	p := satPhase{from: from, to: to, completed: completed, cost: readHost().since(before)}
	// The last window is cut short by the end of the phase.
	if n := len(perWindow) - 1; n > 0 {
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = float64(perWindow[i]) / satWindow.Seconds()
		}
		p.rate = median(rates)
	}
	return p
}

// takeLats drains every node's latency samples. Call it only while no
// traffic is in flight.
func (s *acceptSink) takeLats() []time.Duration {
	var all []time.Duration
	for j := range s.lats {
		all = append(all, s.lats[j]...)
		s.lats[j] = nil
	}
	return all
}

// nodeSnapshot sums the nodes' registries and protocol counters.
type nodeSnapshot struct {
	stats        core.Stats
	tx, rx       uint64
	rxData       uint64
	txByKind     map[string]uint64
	ingressDrops uint64
	overlay      int
	roleChanges  uint64
	suspRaised   uint64
	suspCleared  uint64
	sigP50       float64 // median over nodes of the registry's verify-seconds p50
}

func snapshotNodes(c *liveCluster) nodeSnapshot {
	snap := nodeSnapshot{txByKind: make(map[string]uint64)}
	var sigP50s []float64
	for _, n := range c.nodes {
		addCounters(&snap.stats, n.Stats())
		if n.InOverlay() {
			snap.overlay++
		}
		d := n.Metrics().Snapshot()
		for name, v := range d.Counters {
			base, label := splitLabel(name)
			switch base {
			case obsv.MetricTxTotal:
				snap.tx += v
				snap.txByKind[label] += v
			case obsv.MetricRxTotal:
				snap.rx += v
				if label == wire.KindData.String() {
					snap.rxData += v
				}
			case obsv.MetricRoleChanges:
				snap.roleChanges += v
			case obsv.MetricAdmissionTotal:
				if label == string(obsv.AdmitIngressDrop) {
					snap.ingressDrops += v
				}
			case obsv.MetricSuspicionsTotal:
				if label == "raised" {
					snap.suspRaised += v
				} else {
					snap.suspCleared += v
				}
			}
		}
		if s, ok := d.Summaries[obsv.MetricSigVerifySecs]; ok && s.Count > 0 {
			sigP50s = append(sigP50s, s.P50)
		}
	}
	snap.sigP50 = median(sigP50s)
	return snap
}
