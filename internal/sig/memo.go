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
//
// Sign files its own result as accepted before anyone asks: the Scheme law
// says Verify(id, msg, Sign(id, msg)) is true, so the first neighbour to check
// an honest record finds its verdict instead of running the curve. A tag the
// keyring did not make (forged, tampered, claimed under another id, or signed
// so long ago that its slot was taken) still reaches the inner scheme.
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

// verifyMemoSlots sizes the table of a simulated run. A record is seeded when
// it is signed, and most checks of it arrive within one reception batch (the
// neighbours of the transmitter), the rest within a few gossip rounds, so a
// small table keeps the hit rate. On the benchmark's sim-hostile cells (n=50,
// ≈2 100 signatures and ≈23 000 calls) 3.2–4.7 % of the calls reach the inner
// scheme at 1024 slots, and 90–96 % of those are the forger's junk, which no
// table can answer: a signed record is re-verified 0.016–0.038 times per
// signature, against 0.09–0.16 at 256 slots and 0.010–0.023 at 2048. The table
// is allocated per run, 33 B a slot: 33 KiB, about half a percent of what such
// a run allocates.
const verifyMemoSlots = 1024

// NewVerifyMemo wraps inner with a verdict memo of the simulator's size.
func NewVerifyMemo(inner Scheme) *VerifyMemo { return newVerifyMemo(inner, verifyMemoSlots) }

func newVerifyMemo(inner Scheme, slots int) *VerifyMemo {
	return &VerifyMemo{inner: inner, slots: make([]memoSlot, slots)}
}

// Sign implements Scheme, and records the result as a valid signature.
func (m *VerifyMemo) Sign(id uint32, msg []byte) []byte {
	tag := m.inner.Sign(id, msg)
	m.mu.Lock()
	key, slot := m.lookup(id, msg, tag)
	slot.key, slot.verdict = key, memoOK
	m.mu.Unlock()
	return tag
}

// lookup returns the key of the question (id, msg, tag) and its home slot.
// The caller must hold m.mu.
func (m *VerifyMemo) lookup(id uint32, msg, tag []byte) ([sha256.Size]byte, *memoSlot) {
	// The tag's length goes in front of it so no two (tag, msg) splits of the
	// same bytes share a preimage.
	b := binary.LittleEndian.AppendUint32(m.buf[:0], id)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(tag)))
	b = append(b, tag...)
	b = append(b, msg...)
	m.buf = b
	key := sha256.Sum256(b)
	return key, &m.slots[binary.LittleEndian.Uint64(key[:])%uint64(len(m.slots))]
}

// Verify implements Scheme.
func (m *VerifyMemo) Verify(id uint32, msg, tag []byte) bool {
	m.mu.Lock()
	key, slot := m.lookup(id, msg, tag)
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
