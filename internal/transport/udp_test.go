package transport

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"bbcast/internal/core"
	"bbcast/internal/sig"
	"bbcast/internal/wire"
)

// fastConfig shrinks protocol periods so tests over loopback finish quickly.
func fastConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.GossipInterval = 100 * time.Millisecond
	cfg.MaintenanceInterval = 100 * time.Millisecond
	cfg.RequestDelay = 50 * time.Millisecond
	cfg.NeighborTTL = time.Second
	return cfg
}

type sink struct {
	mu  sync.Mutex
	got map[wire.MsgID][]byte
}

func newSink() *sink { return &sink{got: map[wire.MsgID][]byte{}} }

func (s *sink) deliver(_ wire.NodeID, id wire.MsgID, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(payload))
	copy(cp, payload)
	s.got[id] = cp
}

func (s *sink) has(id wire.MsgID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.got[id]
	return ok
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cond()
}

// mesh builds n fully connected loopback nodes.
func mesh(t *testing.T, n int) ([]*UDPNode, []*sink) {
	t.Helper()
	scheme := sig.NewHMAC(n, 1)
	nodes := make([]*UDPNode, n)
	sinks := make([]*sink, n)
	for i := 0; i < n; i++ {
		sinks[i] = newSink()
		node, err := NewUDPNode(fastConfig(), wire.NodeID(i), scheme, "127.0.0.1:0", sinks[i].deliver)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		t.Cleanup(func() { node.Close() })
	}
	for i, node := range nodes {
		var peers []string
		for j, other := range nodes {
			if i != j {
				peers = append(peers, other.Addr().String())
			}
		}
		if err := node.SetPeers(peers); err != nil {
			t.Fatal(err)
		}
	}
	return nodes, sinks
}

func TestUDPBroadcastDelivers(t *testing.T) {
	nodes, sinks := mesh(t, 3)
	id := nodes[0].Broadcast([]byte("over the air"))
	for i := 1; i < 3; i++ {
		if !waitFor(t, 5*time.Second, func() bool { return sinks[i].has(id) }) {
			t.Fatalf("node %d never delivered %v", i, id)
		}
	}
	sinks[1].mu.Lock()
	payload := string(sinks[1].got[id])
	sinks[1].mu.Unlock()
	if payload != "over the air" {
		t.Fatalf("payload = %q", payload)
	}
}

func TestUDPLateJoinerRecoversViaGossip(t *testing.T) {
	// A node that joins after the broadcast has no way to get the data
	// except the signature-gossip + request path — the protocol's core
	// recovery mechanism, here over real sockets.
	scheme := sig.NewHMAC(4, 1)
	sinkA, sinkB, sinkC := newSink(), newSink(), newSink()
	a, err := NewUDPNode(fastConfig(), 0, scheme, "127.0.0.1:0", sinkA.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDPNode(fastConfig(), 1, scheme, "127.0.0.1:0", sinkB.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.SetPeers([]string{b.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPeers([]string{a.Addr().String()}); err != nil {
		t.Fatal(err)
	}

	id := a.Broadcast([]byte("early message"))
	if !waitFor(t, 5*time.Second, func() bool { return sinkB.has(id) }) {
		t.Fatal("peer never delivered the initial broadcast")
	}

	// C joins late; A and B learn about it via its traffic and gossip the
	// old message's signature; C requests and recovers it.
	c, err := NewUDPNode(fastConfig(), 2, scheme, "127.0.0.1:0", sinkC.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	all := []string{a.Addr().String(), b.Addr().String(), c.Addr().String()}
	for i, n := range []*UDPNode{a, b, c} {
		var peers []string
		for j, addr := range all {
			if i != j {
				peers = append(peers, addr)
			}
		}
		if err := n.SetPeers(peers); err != nil {
			t.Fatal(err)
		}
	}
	if !waitFor(t, 10*time.Second, func() bool { return sinkC.has(id) }) {
		t.Fatal("late joiner never recovered the message via gossip")
	}
}

func TestUDPCloseIdempotent(t *testing.T) {
	scheme := sig.NewHMAC(1, 1)
	n, err := NewUDPNode(fastConfig(), 0, scheme, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

// failingCloser closes the real device, then reports err in place of its
// result.
type failingCloser struct {
	io.Closer
	err error
}

func (c failingCloser) Close() error {
	c.Closer.Close()
	return c.err
}

// TestUDPCloseReturnsDeviceError: closing the durable-state log can report a
// write the OS had deferred, so the node's Close must return the device's
// error, not drop it.
func TestUDPCloseReturnsDeviceError(t *testing.T) {
	n, err := NewUDPNodeDir(fastConfig(), 0, sig.NewHMAC(1, 1), "127.0.0.1:0", t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.dev == nil {
		t.Fatal("node opened with a persist directory has no device")
	}
	errClose := errors.New("device close failed")
	n.dev = failingCloser{Closer: n.dev, err: errClose}
	if err := n.Close(); !errors.Is(err, errClose) {
		t.Fatalf("Close() = %v, want the device's %v", err, errClose)
	}
}

func TestUDPGarbageDatagramIgnored(t *testing.T) {
	// Garbage and truncated datagrams must not wedge the read loop.
	nodes, sinks := mesh(t, 2)
	conn, err := net.Dial("udp", nodes[1].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(nil); err != nil {
		t.Fatal(err)
	}
	id := nodes[0].Broadcast([]byte("still alive"))
	if !waitFor(t, 5*time.Second, func() bool { return sinks[1].has(id) }) {
		t.Fatal("node stopped processing after garbage datagrams")
	}
}

func TestUDPBadListenAddress(t *testing.T) {
	scheme := sig.NewHMAC(1, 1)
	if _, err := NewUDPNode(fastConfig(), 0, scheme, "not-an-address", nil); err == nil {
		t.Fatal("bad listen address accepted")
	}
}

func TestUDPBadPeerAddress(t *testing.T) {
	scheme := sig.NewHMAC(1, 1)
	n, err := NewUDPNode(fastConfig(), 0, scheme, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.SetPeers([]string{"::not valid::"}); err == nil {
		t.Fatal("bad peer address accepted")
	}
}

func TestUDPWithDeploymentKeystores(t *testing.T) {
	// The full deployment path: generate per-node key files, load each
	// node's own file, run the protocol over UDP with real Ed25519.
	dir := t.TempDir()
	if err := sig.GenerateKeystores(dir, 2, 9); err != nil {
		t.Fatal(err)
	}
	sinks := []*sink{newSink(), newSink()}
	nodes := make([]*UDPNode, 2)
	for i := 0; i < 2; i++ {
		keys, err := sig.LoadKeystore(sig.KeystorePath(dir, uint32(i)))
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewUDPNode(fastConfig(), wire.NodeID(i), keys, "127.0.0.1:0", sinks[i].deliver)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		nodes[i] = node
	}
	if err := nodes[0].SetPeers([]string{nodes[1].Addr().String()}); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].SetPeers([]string{nodes[0].Addr().String()}); err != nil {
		t.Fatal(err)
	}
	id := nodes[0].Broadcast([]byte("keystore-signed"))
	if !waitFor(t, 5*time.Second, func() bool { return sinks[1].has(id) }) {
		t.Fatal("message never delivered under deployment keystores")
	}
}

func TestUDPClosePromptAndLeakFree(t *testing.T) {
	scheme := sig.NewHMAC(1, 4)
	before := runtime.NumGoroutine()
	// A batch of idle nodes: every read loop is blocked in the kernel with
	// no traffic to wake it, the worst case for Close.
	var nodes []*UDPNode
	for i := 0; i < 4; i++ {
		n, err := NewUDPNode(fastConfig(), wire.NodeID(i), scheme, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	start := time.Now()
	done := make(chan struct{})
	go func() {
		for _, n := range nodes {
			if err := n.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return within 5s")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %s on idle nodes", elapsed)
	}
	// The read loops must all be gone; poll briefly since goroutine exit
	// is asynchronous with the done-channel close.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestUDPRestartResumesSequence(t *testing.T) {
	// A node restarted over the same durable-state directory must carry on
	// from its persisted sequence number instead of reusing ids — the
	// at-most-once guarantee for a live deployment that loses power.
	dir := t.TempDir()
	scheme := sig.NewHMAC(2, 1)
	sink0 := newSink()

	node, err := NewUDPNodeDir(fastConfig(), 0, scheme, "127.0.0.1:0", dir, sink0.deliver)
	if err != nil {
		t.Fatal(err)
	}
	a := node.Broadcast([]byte("first life, first"))
	b := node.Broadcast([]byte("first life, second"))
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}

	reborn, err := NewUDPNodeDir(fastConfig(), 0, scheme, "127.0.0.1:0", dir, sink0.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	c := reborn.Broadcast([]byte("second life"))
	if c == a || c == b {
		t.Fatalf("restarted node reused message id %v (earlier: %v, %v)", c, a, b)
	}
	if c.Seq <= b.Seq {
		t.Fatalf("sequence went backwards across restart: %d after %d", c.Seq, b.Seq)
	}
}
