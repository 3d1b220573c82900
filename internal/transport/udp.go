//bbvet:wallclock live transport: socket deadlines, the wall time each node's timer engine is moved to, and seed entropy are wall-clock by nature

// Package transport runs the broadcast protocol over real UDP datagrams.
//
// A UDPNode emulates the radio's one-hop broadcast by sending each frame to
// every peer in its broadcast domain (for a real ad-hoc deployment this
// would be the 802.11 broadcast address; a peer list keeps the package
// portable and testable on loopback). The protocol engine itself is the same
// code the simulator runs: only the Clock and Send dependencies differ.
package transport

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"expvar"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"bbcast/internal/core"
	"bbcast/internal/env"
	"bbcast/internal/obsv"
	"bbcast/internal/persist"
	"bbcast/internal/sig"
	"bbcast/internal/sim"
	"bbcast/internal/wire"
)

// maxDatagram bounds receive buffers.
const maxDatagram = 64 * 1024

// inboxDepth bounds the decoded-packet queue between the socket reader and
// the protocol goroutine. When the protocol cannot keep up (e.g. a LAN
// flooder outpacing signature verification), further datagrams are dropped at
// ingress instead of wedging the read loop or growing a queue without bound.
const inboxDepth = 256

// randSeed produces the seed for a live node's protocol RNG. Tests that need
// reproducible live nodes may swap it; production uses the OS entropy pool.
// The previous time.Now().UnixNano()^id<<32 seed was predictable (an attacker
// who can bound the start instant can enumerate it, and with it every gossip
// jitter and forwarding delay the node will ever pick) and collided outright
// for nodes created in the same nanosecond, correlating their backoff.
var randSeed = secureSeed

// secureSeed draws a 64-bit seed from crypto/rand; it panics if the OS
// entropy source is unusable, matching crypto/rand's own contract — a live
// node with predictable jitter is worse than one that fails to start.
func secureSeed() int64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("transport: cannot seed RNG: %v", err))
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// UDPNode hosts one protocol instance over a UDP socket.
//
// core.Protocol is not safe for concurrent use, so one goroutine, loop, owns
// it: loop is the only code that touches proto, eng, peers and txFrames once
// the constructor has returned. The socket reader and the API methods hand
// their work to loop over channels.
type UDPNode struct {
	id    wire.NodeID
	conn  *net.UDPConn
	proto *core.Protocol
	// dev is the durable-state device when the node was opened with a
	// persist directory; closed with the node.
	dev *persist.FileDevice

	registry *obsv.Registry
	obs      obsv.Observer
	// eng holds the protocol's timers; loop moves it to wall time measured
	// from epoch, so they fire in (deadline, arm order) as in the simulator.
	eng   *sim.Engine
	epoch time.Time

	peers []*net.UDPAddr
	// txFrames numbers frames this node put on the wire, giving lineage
	// events a local frame id. Meta does not cross the wire, so received
	// frames carry a zero Meta on a live transport.
	txFrames uint64

	debugMu  sync.Mutex
	debugSrv *http.Server

	inbox chan *wire.Packet
	// Broadcast has a channel pair of its own: it is the per-message path,
	// and handing loop a closure would allocate.
	bcast   chan []byte
	bcastID chan wire.MsgID
	// calls carries every other API call. One reply channel serves all
	// callers: loop takes no second call until the first has its reply.
	calls chan func()
	ret   chan struct{}

	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup // readLoop and loop
}

// NewUDPNode binds listen (e.g. "127.0.0.1:0") and starts the protocol.
// Deliver, if non-nil, receives accepted messages. It runs on the node's
// protocol goroutine, which waits for it: return quickly, and do not call
// back into the node, which would deadlock.
func NewUDPNode(cfg core.Config, id wire.NodeID, scheme sig.Scheme, listen string,
	deliver func(origin wire.NodeID, msgID wire.MsgID, payload []byte)) (*UDPNode, error) {
	return NewUDPNodeDir(cfg, id, scheme, listen, "", deliver)
}

// NewUDPNodeDir is NewUDPNode with a durable-state directory. A non-empty dir
// opens (or replays, after a crash) a file-backed persist device there: the
// restarting daemon recovers its sequence high-water mark, delivered-message
// dedup state and TRUST verdicts, and — with cfg.CatchUpSync — bulk-fetches
// the messages it missed from a neighbour. An empty dir keeps the node
// stateless across restarts.
func NewUDPNodeDir(cfg core.Config, id wire.NodeID, scheme sig.Scheme, listen, dir string,
	deliver func(origin wire.NodeID, msgID wire.MsgID, payload []byte)) (*UDPNode, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", listen, err)
	}
	var dev *persist.FileDevice
	var store *persist.Store
	if dir != "" {
		if dev, err = persist.OpenDir(dir); err != nil {
			return nil, fmt.Errorf("transport: persist: %w", err)
		}
		if store, err = persist.Open(dev); err != nil {
			dev.Close() //bbvet:errflow cleanup on a failed constructor path; the open error being returned is the root cause
			return nil, fmt.Errorf("transport: persist: %w", err)
		}
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		if dev != nil {
			dev.Close() //bbvet:errflow cleanup on a failed constructor path; the listen error being returned is the root cause
		}
		return nil, fmt.Errorf("transport: listen %q: %w", listen, err)
	}
	n := &UDPNode{
		id:       id,
		dev:      dev,
		conn:     conn,
		registry: obsv.NewRegistry(),
		eng:      sim.New(0),
		epoch:    time.Now(),
		inbox:    make(chan *wire.Packet, inboxDepth),
		bcast:    make(chan []byte),
		bcastID:  make(chan wire.MsgID),
		calls:    make(chan func()),
		ret:      make(chan struct{}),
		closed:   make(chan struct{}),
	}
	n.obs = obsv.NewRegistryObserver(n.registry)
	if deliver == nil {
		// core accepts a node's own broadcasts only when an upcall is
		// attached, and a live node always accepts them.
		deliver = func(wire.NodeID, wire.MsgID, []byte) {}
	}
	// New arms the first timers here, on the constructing goroutine, before
	// loop exists to race with it.
	n.proto = core.New(cfg, core.Deps{
		ID:      id,
		Clock:   env.SimClock{Eng: n.eng},
		Send:    n.send,
		Scheme:  scheme,
		Rand:    rand.New(rand.NewSource(randSeed())),
		Obs:     n.obs,
		Store:   store,
		Deliver: deliver,
	})
	n.wg.Add(2)
	go n.readLoop()
	go n.loop()
	return n, nil
}

// now is the wall time since the node's epoch: the time loop moves the
// engine to, and a timestamp any goroutine may take.
func (n *UDPNode) now() time.Duration { return time.Since(n.epoch) }

// loop is the node's protocol goroutine. Each step first moves the engine to
// wall time, which fires every timer that has come due, then handles one
// input; between steps it sleeps until the engine's next deadline.
func (n *UDPNode) loop() {
	defer n.wg.Done()
	wake := time.NewTimer(0) // New has armed timers already
	defer wake.Stop()
	for {
		select {
		case <-n.closed:
			return
		case <-wake.C:
			n.eng.Run(n.now())
		case pkt := <-n.inbox:
			n.eng.Run(n.now())
			n.proto.HandlePacket(pkt)
		case payload := <-n.bcast:
			n.eng.Run(n.now())
			n.bcastID <- n.proto.Broadcast(payload)
		case fn := <-n.calls:
			n.eng.Run(n.now())
			fn()
			n.ret <- struct{}{}
		}
		// A deadline that has already passed fires the timer at once. Under
		// Go 1.22's timer semantics Reset can leave an earlier deadline's
		// tick in wake.C; it only wakes the loop early, to run no timer.
		if at, ok := n.eng.Next(); ok {
			wake.Reset(at - n.now())
		}
	}
}

// call runs fn on the protocol goroutine and waits for it. It reports false,
// without running fn, once the node is closed.
func (n *UDPNode) call(fn func()) bool {
	select {
	case n.calls <- fn:
		<-n.ret
		return true
	case <-n.closed:
		return false
	}
}

// Addr returns the bound UDP address.
func (n *UDPNode) Addr() *net.UDPAddr {
	addr, _ := n.conn.LocalAddr().(*net.UDPAddr)
	return addr
}

// ID returns the node id.
func (n *UDPNode) ID() wire.NodeID { return n.id }

// SetPeers replaces the broadcast domain. It fails once the node is closed.
func (n *UDPNode) SetPeers(addrs []string) error {
	resolved := make([]*net.UDPAddr, 0, len(addrs))
	for _, a := range addrs {
		ua, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			return fmt.Errorf("transport: resolve peer %q: %w", a, err)
		}
		resolved = append(resolved, ua)
	}
	if !n.call(func() { n.peers = resolved }) {
		return fmt.Errorf("transport: set peers: %w", net.ErrClosed)
	}
	return nil
}

// Broadcast originates an application message. Once the node is closed it
// sends nothing and returns the zero MsgID.
func (n *UDPNode) Broadcast(payload []byte) wire.MsgID {
	select {
	case n.bcast <- payload:
	case <-n.closed:
		return wire.MsgID{}
	}
	id := <-n.bcastID
	n.obs.OnInject(n.now(), n.id, id)
	return id
}

// InOverlay reports the node's current overlay membership (false once the
// node is closed).
func (n *UDPNode) InOverlay() (in bool) {
	n.call(func() { in = n.proto.InOverlay() })
	return in
}

// Stats returns a snapshot of the protocol counters (zero once the node is
// closed).
func (n *UDPNode) Stats() (s core.Stats) {
	n.call(func() { s = n.proto.Stats() })
	return s
}

// Metrics exposes the node's metrics registry (tx/rx by kind, accepts,
// suspicions, signature-verify latency, queue depths). Scraping it is safe
// from any goroutine.
func (n *UDPNode) Metrics() *obsv.Registry { return n.registry }

// ServeDebug starts an HTTP server on addr exposing the node's internals:
//
//	/metrics      Prometheus text exposition of the metrics registry
//	/metrics.json the same registry as JSON (the bbsim -metrics-out schema)
//	/status       one-line JSON snapshot (id, role, store/neighbour sizes)
//	/debug/vars   expvar
//	/debug/pprof/ CPU, heap and the other standard profiles
//
// It returns the listener's address (useful with ":0") and stops the server
// when the node is closed. One debug server per node; calling ServeDebug
// again replaces the previous server.
func (n *UDPNode) ServeDebug(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: debug listen %q: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = n.registry.WriteProm(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = n.registry.WriteJSON(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		var status string
		if !n.call(func() {
			held, tombstones := n.proto.StoreSize()
			status = fmt.Sprintf(`{"id":%d,"role":%q,"store":%d,"tombstones":%d,"neighbors":%d,"missing":%d}`+"\n",
				n.id, n.proto.Role().String(), held, tombstones, n.proto.NeighborCount(), n.proto.MissingCount())
		}) {
			http.Error(w, "node closed", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, status)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{Handler: mux}
	n.debugMu.Lock()
	if prev := n.debugSrv; prev != nil {
		_ = prev.Close()
	}
	n.debugSrv = srv
	n.debugMu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), nil
}

// send transmits one frame to every peer (the one-hop broadcast). The
// protocol calls it, so it runs on the protocol goroutine.
func (n *UDPNode) send(pkt *wire.Packet) {
	buf := pkt.Marshal()
	// One tx event per frame put on the air, not per peer: the peer loop
	// emulates a single radio broadcast.
	n.txFrames++
	pkt.Meta.Frame = n.txFrames
	n.obs.OnPacketTx(n.eng.Now(), n.id, pkt.Kind, pkt.ID(), pkt.Meta)
	for _, peer := range n.peers {
		// Best-effort datagrams: losses are the protocol's problem by
		// design, so write errors are intentionally dropped.
		_, _ = n.conn.WriteToUDP(buf, peer) //bbvet:errflow a lost datagram is indistinguishable from a lost packet; gossip/recovery handles both
	}
}

// readLoop pulls datagrams off the socket, decodes them and hands them to the
// protocol goroutine through the bounded inbox. It never blocks on the
// protocol: when the inbox is full the datagram is dropped (with an
// ingress-drop event), so a flooder saturating the protocol layer cannot
// wedge the kernel receive path.
func (n *UDPNode) readLoop() {
	defer n.wg.Done()
	// One buffer serves every datagram: wire.Unmarshal copies every byte
	// slice out of its input, so the buffer is free again once decoding
	// returns.
	buf := make([]byte, maxDatagram)
	for {
		sz, _, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				// The socket is gone for good; without this the loop would
				// spin hot on a permanently failing read.
				return
			}
			// Transient read errors: keep serving until closed.
			continue
		}
		pkt, err := wire.Unmarshal(buf[:sz])
		if err != nil {
			continue // garbage datagram
		}
		select {
		case n.inbox <- pkt:
		case <-n.closed:
			return
		default:
			// Protocol layer saturated: shed at ingress. The registry
			// observer's counters are atomic and the timestamp is wall
			// time, not the engine's, so this is safe off the protocol
			// goroutine.
			n.obs.OnAdmission(n.now(), n.id, obsv.AdmitIngressDrop)
		}
	}
}

// Close stops the node and waits for its read and protocol loops to exit. It
// returns promptly even if the read loop is blocked in a kernel read: closing
// the socket fails the pending ReadFromUDP at once, without waiting for
// traffic. Whatever is still queued in the inbox is dropped, and the
// protocol's pending timers are never run: nothing moves its engine again.
func (n *UDPNode) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.closed)
		n.debugMu.Lock()
		if n.debugSrv != nil {
			_ = n.debugSrv.Close()
			n.debugSrv = nil
		}
		n.debugMu.Unlock()
		err = n.conn.Close()
		n.wg.Wait()
		if n.dev != nil {
			if cerr := n.dev.Close(); err == nil {
				err = cerr
			}
		}
	})
	return err
}
