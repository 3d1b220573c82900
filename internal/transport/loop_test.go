package transport

import (
	"errors"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bbcast/internal/env"
	"bbcast/internal/obsv"
	"bbcast/internal/sig"
	"bbcast/internal/sim"
	"bbcast/internal/wire"
)

// TestLoopTimersFireInDeadlineThenArmOrder arms timers through the node's own
// clock, on its protocol goroutine as the protocol does, and checks the live
// path keeps the simulator's order: by deadline, then by arm order, each at
// its deadline on the node's clock. A timer cancelled by an earlier callback
// at the same deadline must never run.
func TestLoopTimersFireInDeadlineThenArmOrder(t *testing.T) {
	n, err := NewUDPNode(fastConfig(), 0, sig.NewHMAC(1, 1), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	type firing struct {
		at  time.Duration
		arm int
	}
	const timers = 120
	var fired, want []firing // appended to only on the protocol goroutine
	victimRan := false
	done := make(chan struct{})
	n.call(func() {
		clock := env.SimClock{Eng: n.eng}
		t0 := clock.Now()
		arm := func(i int, at time.Duration, then func()) {
			want = append(want, firing{at, i})
			clock.After(at-t0, func() {
				fired = append(fired, firing{clock.Now(), i})
				if then != nil {
					then()
				}
				if len(fired) == timers+1 {
					close(done)
				}
			})
		}
		// Four deadlines 5 ms apart, armed round-robin latest first, so each
		// deadline holds 30 timers and arm order disagrees with deadline
		// order at every step.
		for i := 0; i < timers; i++ {
			arm(i, t0+20*time.Millisecond+time.Duration(3-i%4)*5*time.Millisecond, nil)
		}
		// At the second deadline: a canceller armed before its victim. The
		// protocol's clock cannot cancel, so the pair goes on the engine.
		mid := t0 + 25*time.Millisecond
		var victim sim.Timer
		arm(timers, mid, func() { victim.Stop() })
		victim = n.eng.After(mid-t0, func() { victimRan = true })
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("armed timers did not all fire within 5s")
	}

	var got []firing
	var ran bool
	n.call(func() { got, ran = append(got, fired...), victimRan })
	if ran {
		t.Fatal("a timer cancelled by an earlier callback at its own deadline ran")
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(got) != len(want) {
		t.Fatalf("%d timers fired, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d was arm %d at %v; want arm %d at %v (deadline, then arm order)",
				i, got[i].arm, got[i].at, want[i].arm, want[i].at)
		}
	}
}

// counter sums a registry's counters whose name starts with prefix (all
// label values of one metric).
func counter(n *UDPNode, prefix string) uint64 {
	var sum uint64
	for name, v := range n.Metrics().Snapshot().Counters {
		if strings.HasPrefix(name, prefix) {
			sum += v
		}
	}
	return sum
}

// within fails the test if fn has not returned after d.
func within(t *testing.T, what string, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %s", what, d)
	}
}

func TestAPIAfterCloseReturns(t *testing.T) {
	nodes, sinks := mesh(t, 2)
	n := nodes[0]
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	tx, injects := counter(n, obsv.MetricTxTotal), counter(n, obsv.MetricInjectsTotal)

	within(t, "Broadcast after Close", time.Second, func() {
		if id := n.Broadcast([]byte("too late")); id != (wire.MsgID{}) {
			t.Errorf("Broadcast after Close returned %v, want the zero MsgID", id)
		}
	})
	within(t, "Stats after Close", time.Second, func() { n.Stats() })
	within(t, "InOverlay after Close", time.Second, func() { n.InOverlay() })
	within(t, "SetPeers after Close", time.Second, func() {
		if err := n.SetPeers([]string{nodes[1].Addr().String()}); !errors.Is(err, net.ErrClosed) {
			t.Errorf("SetPeers after Close = %v, want net.ErrClosed", err)
		}
	})

	if got := counter(n, obsv.MetricTxTotal); got != tx {
		t.Fatalf("closed node put %d frames on the wire", got-tx)
	}
	if got := counter(n, obsv.MetricInjectsTotal); got != injects {
		t.Fatalf("closed node counted %d injects", got-injects)
	}
	time.Sleep(100 * time.Millisecond)
	sinks[1].mu.Lock()
	defer sinks[1].mu.Unlock()
	if len(sinks[1].got) != 0 {
		t.Fatalf("peer delivered %d messages from a node closed before it broadcast", len(sinks[1].got))
	}
}

// TestConcurrentAPIUnderTraffic drives every API entry point from its own
// goroutine while messages flow through a 3-node mesh, then closes the
// nodes mid-traffic. Under -race it checks that nothing but the protocol
// goroutine touches protocol state; without it, that the API keeps returning
// once the nodes are gone.
func TestConcurrentAPIUnderTraffic(t *testing.T) {
	nodes, sinks := mesh(t, 3)
	addr, err := nodes[1].ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: time.Second}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	repeat := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				fn()
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}
	var sent int
	repeat(func() {
		if id := nodes[sent%len(nodes)].Broadcast([]byte("under traffic")); id != (wire.MsgID{}) {
			sent++
		}
	})
	repeat(func() {
		for _, n := range nodes {
			n.Stats()
		}
	})
	repeat(func() {
		for _, n := range nodes {
			n.InOverlay()
		}
	})
	repeat(func() {
		if resp, err := client.Get("http://" + addr.String() + "/status"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})

	delivered := func(s *sink) int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.got)
	}
	if !waitFor(t, 10*time.Second, func() bool {
		for _, s := range sinks {
			if delivered(s) < 20 {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("traffic did not flow: deliveries %d/%d/%d", delivered(sinks[0]), delivered(sinks[1]), delivered(sinks[2]))
	}

	within(t, "Close under traffic", 5*time.Second, func() {
		for _, n := range nodes {
			if err := n.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}
	})
	time.Sleep(50 * time.Millisecond) // every caller now meets closed nodes
	close(stop)
	within(t, "API callers after Close", 5*time.Second, wg.Wait)
	if sent == 0 {
		t.Fatal("no Broadcast returned a message id")
	}
}
