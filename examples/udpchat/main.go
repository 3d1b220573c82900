// Udpchat runs the protocol engine over real UDP sockets on loopback: five
// nodes form a broadcast domain, each says hello, and a late joiner recovers
// every message it missed purely through the signature-gossip recovery path
// — no simulator involved.
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"bbcast"
)

const nodes = 5

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() (err error) {
	keys := bbcast.NewHMACKeyring(nodes+1, 42)
	cfg := bbcast.DefaultProtocolConfig()
	cfg.GossipInterval = 200 * time.Millisecond
	cfg.MaintenanceInterval = 200 * time.Millisecond
	cfg.RequestDelay = 100 * time.Millisecond

	var mu sync.Mutex
	received := map[bbcast.NodeID]int{}
	deliver := func(self bbcast.NodeID) bbcast.DeliverFunc {
		return func(origin bbcast.NodeID, id bbcast.MsgID, payload []byte) {
			mu.Lock()
			defer mu.Unlock()
			received[self]++
			fmt.Printf("  node %d accepted %v from %d: %q\n", self, id, origin, payload)
		}
	}

	all := make([]*bbcast.Node, 0, nodes+1)
	addrs := make([]string, 0, nodes+1)
	// Close every node started, the late joiner too, and report what fails.
	defer func() {
		for _, n := range all {
			err = errors.Join(err, n.Close())
		}
	}()
	for i := 0; i < nodes; i++ {
		id := bbcast.NodeID(i)
		n, err := bbcast.NewNode(cfg, id, keys, "127.0.0.1:0", deliver(id))
		if err != nil {
			return err
		}
		all = append(all, n)
		addrs = append(addrs, n.Addr().String())
	}
	wirePeers(all, addrs)

	fmt.Println("== five nodes chat over UDP ==")
	for i, n := range all {
		n.Broadcast([]byte(fmt.Sprintf("hello from node %d", i)))
	}
	waitUntil(5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < nodes; i++ {
			if received[bbcast.NodeID(i)] < nodes { // own + 4 others
				return false
			}
		}
		return true
	})

	fmt.Println("== a sixth node joins late and recovers the history via gossip ==")
	late, err := bbcast.NewNode(cfg, nodes, keys, "127.0.0.1:0", deliver(nodes))
	if err != nil {
		return err
	}
	all = append(all, late)
	addrs = append(addrs, late.Addr().String())
	wirePeers(all, addrs)

	// got is read under the lock, by the last check waitUntil makes, and is
	// what both the verdict and the message use: deliver upcalls may still
	// be writing the map.
	var got int
	waitUntil(10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		got = received[bbcast.NodeID(nodes)]
		return got >= nodes
	})
	if got < nodes {
		return fmt.Errorf("late joiner recovered only %d of %d messages", got, nodes)
	}
	fmt.Println("late joiner recovered the full history.")
	return nil
}

func wirePeers(all []*bbcast.Node, addrs []string) {
	for i, n := range all {
		peers := make([]string, 0, len(addrs)-1)
		for j, a := range addrs {
			if i != j {
				peers = append(peers, a)
			}
		}
		if err := n.SetPeers(peers); err != nil {
			log.Fatal(err)
		}
	}
}

func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	return cond()
}
