package core

import (
	"slices"
	"time"

	"bbcast/internal/wire"
)

// msgStore is the message table with the three orders its readers need, each
// kept at mutation time so no tick and no cap check scans or sorts the table:
// tombstones by (purge time, id) then held entries by (receipt time, id), the
// store-cap eviction order, and the recently received held entries by id, the
// lazycast's candidates. Every mutation goes through hold, entomb, restore or
// remove, so no order can be bypassed.
type msgStore struct {
	byID        map[wire.MsgID]*msgState
	held, tombs msgList
	// window is the held entries received within GossipRetention of the last
	// gossip tick, ascending by id, one slot per id. An entry that leaves the
	// held list leaves its slot behind, dead (purged is set), until a gossip
	// tick, its id's next holder or hold's compaction reclaims it.
	//bbvet:bounded-by MaxStore it grows only in hold, which first cuts it to twice the held list
	window []*msgState
}

// msgList threads entries by their prev/next links, ascending by (at, id).
type msgList struct {
	head, tail *msgState
	n          int
}

// push links st at its (at, id) position. Every at is "now" and the clock
// never runs backwards, so that is the tail, reached after a short walk back
// over same-instant entries with larger ids.
func (l *msgList) push(st *msgState) {
	after := l.tail
	for after != nil && (after.at > st.at || after.at == st.at && st.id.Less(after.id)) {
		after = after.prev
	}
	st.prev, st.next = after, l.head
	if after != nil {
		st.next, after.next = after.next, st
	} else {
		l.head = st
	}
	if st.next != nil {
		st.next.prev = st
	} else {
		l.tail = st
	}
	l.n++
}

func (l *msgList) unlink(st *msgState) {
	if st.prev != nil {
		st.prev.next = st.next
	} else {
		l.head = st.next
	}
	if st.next != nil {
		st.next.prev = st.prev
	} else {
		l.tail = st.prev
	}
	l.n--
}

// hold files st as a held entry received now: a new entry, or a tombstone
// whose payload arrived again.
func (s *msgStore) hold(st *msgState, now time.Duration) {
	if old := s.byID[st.id]; old != nil {
		// The tombstone itself — or, a wiped node re-issuing sequence numbers,
		// the message it first sent under this one, handed back by a neighbour.
		s.remove(old)
	}
	s.byID[st.id] = st
	st.purged, st.at = false, now
	s.held.push(st)
	if len(s.window) > 2*s.held.n {
		// Dead slots outnumber the held entries: drop them here, not at the
		// next gossip tick, so the window only ever grows to twice MaxStore.
		s.window = slices.DeleteFunc(s.window, func(st *msgState) bool { return st.purged })
	}
	i, found := slices.BinarySearchFunc(s.window, st.id, func(e *msgState, id wire.MsgID) int { return e.id.Compare(id) })
	if !found {
		s.window = slices.Insert(s.window, i, nil)
	}
	s.window[i] = st
}

// entomb drops a held entry's payload, keeping its id as a duplicate-filter
// tombstone purged now.
func (s *msgStore) entomb(st *msgState, now time.Duration) {
	s.held.unlink(st)
	st.payload, st.dataSig, st.headerSig, st.holders = nil, nil, nil, nil
	st.purged, st.at = true, now
	s.tombs.push(st)
}

// restore files the tombstone of a delivery remembered by the durable store.
func (s *msgStore) restore(id wire.MsgID, digest uint64, now time.Duration) {
	st := &msgState{id: id, purged: true, at: now, digest: digest}
	s.byID[id] = st
	s.tombs.push(st)
}

// remove deletes st outright.
func (s *msgStore) remove(st *msgState) {
	if st.purged {
		s.tombs.unlink(st)
	} else {
		s.held.unlink(st)
	}
	st.purged = true // its window slot, if it still has one, is dead
	delete(s.byID, st.id)
}

// recent drops from the window the dead slots and what was received more than
// retention ago, and returns the rest: the lazycast's candidates, by id.
func (s *msgStore) recent(now, retention time.Duration) []*msgState {
	s.window = slices.DeleteFunc(s.window, func(st *msgState) bool { return st.purged || now-st.at > retention })
	return s.window
}
