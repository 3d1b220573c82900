package core

import (
	"time"

	"bbcast/internal/wire"
)

// timerKind is what a recovery timer does when it fires.
type timerKind uint8

const (
	timerRequest timerKind = iota // the first request to one gossiper (noteMissing)
	timerRetry                    // the next step of a retransmission chain (scheduleRetryStep)
	timerReply                    // a deferred recovery reply (reply)
)

// timer is one armed recovery timer, held as a value in Protocol.timers. Its
// fire-time guard is stillMissing's identity check on miss (requests and
// retries) or the reply token (replies), so a timer whose record has moved on,
// been dropped or been wiped by Rejoin fires as a no-op.
type timer struct {
	due   time.Duration
	seq   uint64 // arm order, which breaks ties in due
	kind  timerKind
	id    wire.MsgID
	miss  *pendingMiss // timerRequest, timerRetry
	to    wire.NodeID  // timerRequest: the gossiper to ask
	token uint64       // timerReply
}

func (t *timer) before(o *timer) bool {
	if t.due != o.due {
		return t.due < o.due
	}
	return t.seq < o.seq
}

// timerHeap is a binary min-heap of timers by (due, arm order).
type timerHeap []timer

func (h *timerHeap) push(t timer) {
	q := append(*h, t)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *timerHeap) pop() timer {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = timer{}
	q = q[:n]
	for i := 0; ; {
		least := 2*i + 1
		if least >= n {
			break
		}
		if r := least + 1; r < n && q[r].before(&q[least]) {
			least = r
		}
		if !q[least].before(&q[i]) {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// after arms t to fire d from now. The clock gets the same method value for
// every timer, so arming allocates nothing once the heap has grown.
func (p *Protocol) after(d time.Duration, t timer) {
	p.timerSeq++
	t.due, t.seq = p.deps.Clock.Now()+max(d, 0), p.timerSeq
	p.timers.push(t)
	p.deps.Clock.After(d, p.fire)
}

// fireTimer runs the earliest armed timer. The clock fires deadlines in order
// and equal ones in arm order (env.Clock), and every timer armed its own
// clock event, so the k-th call finds the k-th timer at the head of the heap.
func (p *Protocol) fireTimer() {
	t := p.timers.pop()
	if p.stopped {
		return
	}
	switch t.kind {
	case timerRequest:
		if p.stillMissing(t.id, t.miss) {
			p.request(t.id, t.miss, t.to, wire.CauseRequest)
			// The data did not arrive by itself: beyond the per-gossiper
			// first requests, start the bounded retransmission chain (once
			// per entry).
			p.armRetries(t.id, t.miss)
		}
	case timerRetry:
		p.retryStep(t.id, t.miss)
	case timerReply:
		if cur, ok := p.replies[t.id]; ok && cur.token == t.token {
			delete(p.replies, t.id)
			p.sendReply(t.id, cur)
		}
	}
}
