package sig

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// VerifyMemo decorates a Scheme so that each distinct (id, msg, tag) question
// reaches the inner scheme once while its verdict stays in the table.
//
// Simulator only. One simulated run holds one omniscient keyring, and a frame
// heard by k neighbours is the same bytes k times: the inner scheme would be
// asked the same pure question k times over. A deployed node shares no memory
// with its neighbours, so nothing outside runner.buildScheme constructs one.
//
// It is sound because Verify is a pure function of its three arguments, the
// key is a collision-resistant hash of all three compared at full length, and
// a false verdict is as final as a true one. Every call therefore returns
// exactly what the inner scheme would.
type VerifyMemo struct {
	inner Scheme

	mu sync.Mutex
	// buf is scratch for the key's preimage, guarded by mu and reused so a
	// call allocates nothing once it has grown to the longest message.
	buf []byte
	// slots is direct-mapped: a key has one home, a newer key evicts an older
	// one there, and the table never grows.
	slots []memoSlot
}

var _ Scheme = (*VerifyMemo)(nil)

type memoSlot struct {
	key     [sha256.Size]byte
	verdict uint8
}

const (
	memoEmpty uint8 = iota
	memoBad
	memoOK
)

// verifyMemoSlots sizes the table of a simulated run. Most repeats arrive
// within one reception batch (the neighbours of one transmitter), the rest
// within a few gossip rounds, so a small table keeps the hit rate: on the
// benchmark's sim-hostile cells (n=50, ≈2 900 distinct triples in ≈23 000
// calls) the inner scheme sees 1.02–1.04× the distinct triples at 1024 slots,
// 1.09–1.12× at 256 and 1.01–1.03× at 2048. The table is allocated per run,
// 33 B a slot: 33 KiB, about half a percent of what such a run allocates.
const verifyMemoSlots = 1024

// NewVerifyMemo wraps inner with a verdict memo of the simulator's size.
func NewVerifyMemo(inner Scheme) *VerifyMemo { return newVerifyMemo(inner, verifyMemoSlots) }

func newVerifyMemo(inner Scheme, slots int) *VerifyMemo {
	return &VerifyMemo{inner: inner, slots: make([]memoSlot, slots)}
}

// Sign implements Scheme.
func (m *VerifyMemo) Sign(id uint32, msg []byte) []byte { return m.inner.Sign(id, msg) }

// Verify implements Scheme.
func (m *VerifyMemo) Verify(id uint32, msg, tag []byte) bool {
	m.mu.Lock()
	// The tag's length goes in front of it so no two (tag, msg) splits of the
	// same bytes share a preimage.
	b := binary.LittleEndian.AppendUint32(m.buf[:0], id)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(tag)))
	b = append(b, tag...)
	b = append(b, msg...)
	m.buf = b
	key := sha256.Sum256(b)
	slot := &m.slots[binary.LittleEndian.Uint64(key[:])%uint64(len(m.slots))]
	if slot.verdict != memoEmpty && slot.key == key {
		ok := slot.verdict == memoOK
		m.mu.Unlock()
		return ok
	}
	m.mu.Unlock()

	ok := m.inner.Verify(id, msg, tag)

	m.mu.Lock()
	slot.key, slot.verdict = key, memoBad
	if ok {
		slot.verdict = memoOK
	}
	m.mu.Unlock()
	return ok
}

// SigSize implements Scheme.
func (m *VerifyMemo) SigSize() int { return m.inner.SigSize() }

// Name implements Scheme: the memo is invisible in reports.
func (m *VerifyMemo) Name() string { return m.inner.Name() }
