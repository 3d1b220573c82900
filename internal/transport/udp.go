//bbvet:wallclock live transport: socket deadlines, RealClock and seed entropy are wall-clock by nature

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
	"bbcast/internal/wire"
)

// maxDatagram bounds receive buffers.
const maxDatagram = 64 * 1024

// inboxDepth bounds the decoded-packet queue between the socket reader and
// the protocol goroutine. When the protocol cannot keep up (e.g. a LAN
// flooder outpacing signature verification), further datagrams are dropped at
// ingress instead of wedging the read loop or growing a queue without bound.
const inboxDepth = 256

// readBufs recycles receive buffers across datagrams. wire.Unmarshal copies
// every byte slice out of the input, so a buffer can be reused as soon as
// decoding returns.
var readBufs = sync.Pool{
	New: func() any {
		b := make([]byte, maxDatagram)
		return &b
	},
}

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
type UDPNode struct {
	id    wire.NodeID
	conn  *net.UDPConn
	proto *core.Protocol
	// dev is the durable-state device when the node was opened with a
	// persist directory; closed with the node.
	dev *persist.FileDevice

	registry *obsv.Registry
	obs      obsv.Observer
	clock    env.Clock

	mu    sync.Mutex // serializes all protocol access
	peers []*net.UDPAddr
	// txFrames numbers frames this node put on the wire (under mu), giving
	// lineage events a local frame id. Meta does not cross the wire, so
	// received frames carry a zero Meta on a live transport.
	txFrames uint64

	deliver func(origin wire.NodeID, id wire.MsgID, payload []byte)

	debugMu  sync.Mutex
	debugSrv *http.Server

	inbox chan *wire.Packet

	closeOnce sync.Once
	closed    chan struct{}
	done      chan struct{}
	procDone  chan struct{}
}

// lockedClock wraps a Clock so timer callbacks run under the node mutex,
// because core.Protocol is not safe for concurrent use.
type lockedClock struct {
	inner env.Clock
	mu    *sync.Mutex
	node  *UDPNode
}

var _ env.Clock = lockedClock{}

func (c lockedClock) Now() time.Duration { return c.inner.Now() }

func (c lockedClock) After(d time.Duration, fn func()) func() {
	return c.inner.After(d, func() {
		select {
		case <-c.node.closed:
			return
		default:
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		fn()
	})
}

// NewUDPNode binds listen (e.g. "127.0.0.1:0") and starts the protocol.
// Deliver, if non-nil, receives accepted messages; it is invoked with the
// node's internal lock held and must not call back into the node.
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
	var dev *persist.FileDevice
	var store *persist.Store
	if dir != "" {
		var err error
		if dev, err = persist.OpenDir(dir); err != nil {
			return nil, fmt.Errorf("transport: persist: %w", err)
		}
		if store, err = persist.Open(dev); err != nil {
			dev.Close() //bbvet:errflow cleanup on a failed constructor path; the open error being returned is the root cause
			return nil, fmt.Errorf("transport: persist: %w", err)
		}
	}
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		if dev != nil {
			dev.Close() //bbvet:errflow cleanup on a failed constructor path; the resolve error being returned is the root cause
		}
		return nil, fmt.Errorf("transport: resolve %q: %w", listen, err)
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
		deliver:  deliver,
		inbox:    make(chan *wire.Packet, inboxDepth),
		closed:   make(chan struct{}),
		done:     make(chan struct{}),
		procDone: make(chan struct{}),
	}
	n.obs = obsv.NewRegistryObserver(n.registry)
	clock := lockedClock{inner: &env.RealClock{}, mu: &n.mu, node: n}
	n.clock = clock
	n.proto = core.New(cfg, core.Deps{
		ID:     id,
		Clock:  clock,
		Send:   n.send,
		Scheme: scheme,
		Rand:   rand.New(rand.NewSource(randSeed())),
		Obs:    n.obs,
		Store:  store,
		Deliver: func(origin wire.NodeID, msgID wire.MsgID, payload []byte) {
			if n.deliver != nil {
				n.deliver(origin, msgID, payload)
			}
		},
	})
	go n.readLoop()
	go n.procLoop()
	return n, nil
}

// Addr returns the bound UDP address.
func (n *UDPNode) Addr() *net.UDPAddr {
	addr, _ := n.conn.LocalAddr().(*net.UDPAddr)
	return addr
}

// ID returns the node id.
func (n *UDPNode) ID() wire.NodeID { return n.id }

// SetPeers replaces the broadcast domain.
func (n *UDPNode) SetPeers(addrs []string) error {
	resolved := make([]*net.UDPAddr, 0, len(addrs))
	for _, a := range addrs {
		ua, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			return fmt.Errorf("transport: resolve peer %q: %w", a, err)
		}
		resolved = append(resolved, ua)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers = resolved
	return nil
}

// Broadcast originates an application message.
func (n *UDPNode) Broadcast(payload []byte) wire.MsgID {
	n.mu.Lock()
	defer n.mu.Unlock()
	id := n.proto.Broadcast(payload)
	n.obs.OnInject(n.clock.Now(), n.id, id)
	return id
}

// InOverlay reports the node's current overlay membership.
func (n *UDPNode) InOverlay() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.proto.InOverlay()
}

// Stats returns a snapshot of the protocol counters.
func (n *UDPNode) Stats() core.Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.proto.Stats()
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
		n.mu.Lock()
		role := n.proto.Role().String()
		held, tombstones := n.proto.StoreSize()
		neighbors := n.proto.NeighborCount()
		missing := n.proto.MissingCount()
		n.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id":%d,"role":%q,"store":%d,"tombstones":%d,"neighbors":%d,"missing":%d}`+"\n",
			n.id, role, held, tombstones, neighbors, missing)
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

// send transmits one frame to every peer (the one-hop broadcast). Called
// with the node lock held (all protocol entry points hold it).
func (n *UDPNode) send(pkt *wire.Packet) {
	buf := pkt.Marshal()
	// One tx event per frame put on the air, not per peer: the peer loop
	// emulates a single radio broadcast.
	n.txFrames++
	pkt.Meta.Frame = n.txFrames
	n.obs.OnPacketTx(n.clock.Now(), n.id, pkt.Kind, pkt.ID(), pkt.Meta)
	for _, peer := range n.peers {
		// Best-effort datagrams: losses are the protocol's problem by
		// design, so write errors are intentionally dropped.
		_, _ = n.conn.WriteToUDP(buf, peer) //bbvet:errflow a lost datagram is indistinguishable from a lost packet; gossip/recovery handles both
	}
}

// readLoop pulls datagrams off the socket, decodes them and hands them to the
// protocol goroutine through the bounded inbox. It never takes the node lock
// and never blocks on the protocol: when the inbox is full the datagram is
// dropped (with an ingress-drop event), so a flooder saturating the protocol
// layer cannot wedge the kernel receive path.
func (n *UDPNode) readLoop() {
	defer close(n.done)
	bufp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bufp)
	buf := *bufp
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
		default:
			// Protocol layer saturated: shed at ingress. The registry
			// observer's counters are atomic, so this is safe off the
			// protocol goroutine.
			n.obs.OnAdmission(n.clock.Now(), n.id, obsv.AdmitIngressDrop)
		}
	}
}

// procLoop drains the inbox into the protocol under the node lock.
func (n *UDPNode) procLoop() {
	defer close(n.procDone)
	for pkt := range n.inbox {
		n.mu.Lock()
		n.proto.HandlePacket(pkt)
		n.mu.Unlock()
	}
}

// Close stops the node and waits for its read and protocol loops to exit. It
// returns promptly even if the read loop is blocked in a kernel read: an
// immediate read deadline forces the pending ReadFromUDP to fail before the
// socket is torn down, so the loop observes the closed flag without waiting
// for traffic.
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
		_ = n.conn.SetReadDeadline(time.Now())
		n.mu.Lock()
		n.proto.Stop()
		n.mu.Unlock()
		err = n.conn.Close()
		<-n.done
		// The reader is gone; close the inbox so the protocol goroutine
		// drains whatever was queued (HandlePacket is a no-op after Stop)
		// and exits.
		close(n.inbox)
		<-n.procDone
		if n.dev != nil {
			if cerr := n.dev.Close(); err == nil {
				err = cerr
			}
		}
	})
	return err
}
