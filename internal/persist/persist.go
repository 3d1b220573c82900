package persist

import (
	"cmp"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"sort"

	"bbcast/internal/wire"
)

// Record framing: every log record is [u32 length][u32 crc32(payload)]
// [payload]. The length is the payload's, excluding the 8-byte frame header.
// A record whose frame is short, whose length is implausible, or whose CRC
// mismatches marks the end of the usable log: everything after it is
// discarded (replay-truncate-at-first-bad-record).
const (
	frameHeader  = 8
	maxRecordLen = 1 << 10
)

// Record tags.
const (
	recDelivered = 1 // origin u32, seq u32, digest u64
	recSeq       = 2 // seq u32
	recSuspicion = 3 // detector u8, subject u32, raised u8
)

// Snapshot framing: magic, version, a CRC over the body, then the body.
var snapMagic = [4]byte{'B', 'B', 'P', 'S'}

const snapVersion = 1

// DefaultMaxDelivered bounds the delivered-digest table when the caller does
// not set Store.MaxDelivered (matches core's default MaxStore).
const DefaultMaxDelivered = 4096

// DeliveredRec is one remembered delivery: the payload digest (for duplicate
// detection across a restart) and a monotonic generation used for bounded
// oldest-first eviction.
type DeliveredRec struct {
	Digest uint64
	Gen    uint64
}

// Detector identifiers used in Suspicion records. Small fixed bytes rather
// than the detectors' own types so the on-disk format does not depend on
// higher-layer packages.
const (
	DetectorMute    uint8 = 1
	DetectorVerbose uint8 = 2
	DetectorTrust   uint8 = 3
)

// Suspicion identifies one detector/subject suspicion slot.
type Suspicion struct {
	Detector uint8
	Subject  wire.NodeID
}

// State is the recovered durable state.
type State struct {
	// Seq is the highest recorded origination sequence counter.
	Seq uint32
	// Gen is the next delivery generation.
	Gen uint64
	// Delivered maps message ids to their recorded delivery digests.
	Delivered map[wire.MsgID]DeliveredRec
	// Suspicions is the set of suspicion slots recorded as raised.
	Suspicions map[Suspicion]bool
}

func newState() State {
	return State{
		Delivered:  make(map[wire.MsgID]DeliveredRec),
		Suspicions: make(map[Suspicion]bool),
	}
}

// Store is the durable-state handle the protocol records into. Writes are
// best-effort: the first device error is retained in Err and later writes
// become no-ops, because durable state is an accelerator — a node whose disk
// died keeps broadcasting, it just rejoins with amnesia next time.
type Store struct {
	dev   Device
	state State
	// MaxDelivered caps the delivered-digest table (oldest generation
	// evicted first); <= 0 means DefaultMaxDelivered.
	MaxDelivered int
	err          error
	frame        []byte // the record being framed; reused by every append
	// order[head:] is the delivered table's keys in eviction order,
	// ascending (generation, id); order[:head] is the evicted prefix, reclaimed
	// once it is half the slice.
	order []genID
	head  int
}

// genID is one delivered id with the generation it was last recorded under.
type genID struct {
	gen uint64
	id  wire.MsgID
}

func (a genID) compare(b genID) int {
	return cmp.Or(cmp.Compare(a.gen, b.gen), a.id.Compare(b.id))
}

// Open replays dev's snapshot and log into a Store. A corrupt snapshot is
// treated as absent; the log is replayed up to its first bad record and, if
// damage was found, compacted back to the valid prefix so the next append
// does not extend garbage. Only device I/O errors are returned.
func Open(dev Device) (*Store, error) {
	s := &Store{dev: dev, state: newState()}
	snap, err := dev.ReadSnapshot()
	if err != nil {
		return nil, err
	}
	if st, ok := decodeSnapshot(snap); ok {
		s.state = st
		order := make([]genID, 0, len(st.Delivered))
		for id, rec := range st.Delivered {
			order = append(order, genID{rec.Gen, id})
		}
		slices.SortFunc(order, genID.compare)
		s.order = order
	}
	raw, err := dev.ReadLog()
	if err != nil {
		return nil, err
	}
	valid := s.replay(raw)
	if valid < len(raw) {
		// Damage found: rewrite the log as its valid prefix.
		if err := dev.ResetLog(); err != nil {
			return nil, err
		}
		if valid > 0 {
			if err := dev.AppendLog(raw[:valid]); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// replay applies framed records from raw until the first bad record and
// returns how many bytes were valid.
func (s *Store) replay(raw []byte) int {
	off := 0
	for {
		if len(raw)-off < frameHeader {
			return off
		}
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		crc := binary.LittleEndian.Uint32(raw[off+4:])
		if n == 0 || n > maxRecordLen || len(raw)-off-frameHeader < n {
			return off
		}
		payload := raw[off+frameHeader : off+frameHeader+n]
		if crc32.ChecksumIEEE(payload) != crc {
			return off
		}
		if !s.apply(payload) {
			return off
		}
		off += frameHeader + n
	}
}

// apply interprets one record payload; false means the record is
// structurally invalid (wrong length for its tag, unknown tag).
func (s *Store) apply(p []byte) bool {
	switch p[0] {
	case recDelivered:
		if len(p) != 17 {
			return false
		}
		id := wire.MsgID{
			Origin: wire.NodeID(binary.LittleEndian.Uint32(p[1:])),
			Seq:    wire.Seq(binary.LittleEndian.Uint32(p[5:])),
		}
		s.noteDelivered(id, binary.LittleEndian.Uint64(p[9:]))
	case recSeq:
		if len(p) != 5 {
			return false
		}
		if seq := binary.LittleEndian.Uint32(p[1:]); seq > s.state.Seq {
			s.state.Seq = seq
		}
	case recSuspicion:
		if len(p) != 7 {
			return false
		}
		key := Suspicion{Detector: p[1], Subject: wire.NodeID(binary.LittleEndian.Uint32(p[2:]))}
		if p[6] != 0 {
			s.state.Suspicions[key] = true
		} else {
			delete(s.state.Suspicions, key)
		}
	default:
		return false
	}
	return true
}

// noteDelivered inserts one delivery into the in-memory table under the
// bounded-state cap, evicting the oldest generation (ties broken by smallest
// id) to make room: the head of the order. Generations only grow, so the
// record joins it at the tail, unless a snapshot's counter lags its own
// records (never one this package wrote).
func (s *Store) noteDelivered(id wire.MsgID, digest uint64) {
	if old, known := s.state.Delivered[id]; known {
		i, _ := slices.BinarySearchFunc(s.order[s.head:], genID{old.Gen, id}, genID.compare)
		s.order = slices.Delete(s.order, s.head+i, s.head+i+1)
	} else {
		limit := cmp.Or(max(s.MaxDelivered, 0), DefaultMaxDelivered)
		for len(s.state.Delivered) >= limit {
			delete(s.state.Delivered, s.order[s.head].id)
			s.head++
		}
		if s.head*2 >= len(s.order) {
			s.order = s.order[:copy(s.order, s.order[s.head:])]
			s.head = 0
		}
	}
	rec := genID{s.state.Gen, id}
	at, _ := slices.BinarySearchFunc(s.order[s.head:], rec, genID.compare)
	s.order = slices.Insert(s.order, s.head+at, rec)
	s.state.Delivered[id] = DeliveredRec{Digest: digest, Gen: s.state.Gen}
	s.state.Gen++
}

// record returns the n-byte payload area (zeroed) of the store's one frame
// buffer, for appendRecord to frame: devices copy what AppendLog hands them,
// so no record needs memory of its own.
func (s *Store) record(n int) []byte {
	s.frame = append(s.frame[:0], make([]byte, frameHeader+n)...)
	return s.frame[frameHeader:]
}

// appendRecord frames the payload filled into record's buffer and appends it.
func (s *Store) appendRecord() {
	if s.err != nil {
		return
	}
	payload := s.frame[frameHeader:]
	binary.LittleEndian.PutUint32(s.frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(s.frame[4:], crc32.ChecksumIEEE(payload))
	if err := s.dev.AppendLog(s.frame); err != nil {
		s.err = err
	}
}

// RecordDelivered persists one delivery (id + payload digest).
func (s *Store) RecordDelivered(id wire.MsgID, digest uint64) {
	s.noteDelivered(id, digest)
	p := s.record(17)
	p[0] = recDelivered
	binary.LittleEndian.PutUint32(p[1:], uint32(id.Origin))
	binary.LittleEndian.PutUint32(p[5:], uint32(id.Seq))
	binary.LittleEndian.PutUint64(p[9:], digest)
	s.appendRecord()
}

// RecordSeq persists the origination sequence counter high-water mark.
func (s *Store) RecordSeq(seq uint32) {
	if seq > s.state.Seq {
		s.state.Seq = seq
	}
	p := s.record(5)
	p[0] = recSeq
	binary.LittleEndian.PutUint32(p[1:], seq)
	s.appendRecord()
}

// RecordSuspicion persists one suspicion transition.
func (s *Store) RecordSuspicion(detector uint8, subject wire.NodeID, raised bool) {
	key := Suspicion{Detector: detector, Subject: subject}
	if raised {
		s.state.Suspicions[key] = true
	} else {
		delete(s.state.Suspicions, key)
	}
	p := s.record(7)
	p[0] = recSuspicion
	p[1] = detector
	binary.LittleEndian.PutUint32(p[2:], uint32(subject))
	if raised {
		p[6] = 1
	}
	s.appendRecord()
}

// Snapshot serializes the full state, atomically replaces the snapshot blob,
// and truncates the log it subsumes.
func (s *Store) Snapshot() error {
	if s.err != nil {
		return s.err
	}
	if err := s.dev.WriteSnapshot(encodeSnapshot(s.state)); err != nil {
		s.err = err
		return err
	}
	if err := s.dev.ResetLog(); err != nil {
		s.err = err
		return err
	}
	return nil
}

// State returns the recovered/current state (shared maps; callers must not
// mutate).
func (s *Store) State() State { return s.state }

// Seq returns the recorded origination sequence high-water mark.
func (s *Store) Seq() uint32 { return s.state.Seq }

// DeliveredSorted returns the delivered ids in ascending (origin, seq)
// order, for deterministic restoration walks.
func (s *Store) DeliveredSorted() []wire.MsgID {
	ids := make([]wire.MsgID, 0, len(s.state.Delivered))
	for id := range s.state.Delivered {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// Delivered returns the recorded digest for id.
func (s *Store) Delivered(id wire.MsgID) (DeliveredRec, bool) {
	rec, ok := s.state.Delivered[id]
	return rec, ok
}

// SuspicionsSorted returns the raised suspicion slots in ascending
// (detector, subject) order, for deterministic restoration walks.
func (s *Store) SuspicionsSorted() []Suspicion {
	keys := make([]Suspicion, 0, len(s.state.Suspicions))
	for k, raised := range s.state.Suspicions {
		if raised {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Detector != keys[j].Detector {
			return keys[i].Detector < keys[j].Detector
		}
		return keys[i].Subject < keys[j].Subject
	})
	return keys
}

// Len reports how many deliveries are remembered.
func (s *Store) Len() int { return len(s.state.Delivered) }

// Err returns the first device write error, if any.
func (s *Store) Err() error { return s.err }

// encodeSnapshot serializes state: magic, version, body CRC, body. The body
// walks both tables in sorted order so identical states produce identical
// bytes.
func encodeSnapshot(st State) []byte {
	body := make([]byte, 0, 16+24*len(st.Delivered)+8*len(st.Suspicions))
	var u4 [4]byte
	var u8 [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u4[:], v)
		body = append(body, u4[:]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(u8[:], v)
		body = append(body, u8[:]...)
	}
	put32(st.Seq)
	put64(st.Gen)
	ids := make([]wire.MsgID, 0, len(st.Delivered))
	for id := range st.Delivered {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	put32(uint32(len(ids)))
	for _, id := range ids {
		rec := st.Delivered[id]
		put32(uint32(id.Origin))
		put32(uint32(id.Seq))
		put64(rec.Digest)
		put64(rec.Gen)
	}
	keys := make([]Suspicion, 0, len(st.Suspicions))
	for k := range st.Suspicions {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Detector != keys[j].Detector {
			return keys[i].Detector < keys[j].Detector
		}
		return keys[i].Subject < keys[j].Subject
	})
	put32(uint32(len(keys)))
	for _, k := range keys {
		body = append(body, k.Detector)
		put32(uint32(k.Subject))
	}

	out := make([]byte, 0, 9+len(body))
	out = append(out, snapMagic[:]...)
	out = append(out, snapVersion)
	binary.LittleEndian.PutUint32(u4[:], crc32.ChecksumIEEE(body))
	out = append(out, u4[:]...)
	out = append(out, body...)
	return out
}

// decodeSnapshot parses a snapshot blob; any framing, version, CRC, or
// structural mismatch yields (zero, false) — a bad snapshot is simply an
// absent one.
func decodeSnapshot(b []byte) (State, bool) {
	st := newState()
	if len(b) < 9 || [4]byte(b[:4]) != snapMagic || b[4] != snapVersion {
		return st, false
	}
	crc := binary.LittleEndian.Uint32(b[5:])
	body := b[9:]
	if crc32.ChecksumIEEE(body) != crc {
		return st, false
	}
	off := 0
	need := func(n int) bool { return len(body)-off >= n }
	if !need(16) {
		return st, false
	}
	st.Seq = binary.LittleEndian.Uint32(body[off:])
	st.Gen = binary.LittleEndian.Uint64(body[off+4:])
	nDel := int(binary.LittleEndian.Uint32(body[off+12:]))
	off += 16
	if nDel < 0 || !need(24*nDel) {
		return newState(), false
	}
	for i := 0; i < nDel; i++ {
		id := wire.MsgID{
			Origin: wire.NodeID(binary.LittleEndian.Uint32(body[off:])),
			Seq:    wire.Seq(binary.LittleEndian.Uint32(body[off+4:])),
		}
		st.Delivered[id] = DeliveredRec{
			Digest: binary.LittleEndian.Uint64(body[off+8:]),
			Gen:    binary.LittleEndian.Uint64(body[off+16:]),
		}
		off += 24
	}
	if !need(4) {
		return newState(), false
	}
	nSus := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if nSus < 0 || !need(5*nSus) {
		return newState(), false
	}
	for i := 0; i < nSus; i++ {
		st.Suspicions[Suspicion{
			Detector: body[off],
			Subject:  wire.NodeID(binary.LittleEndian.Uint32(body[off+1:])),
		}] = true
		off += 5
	}
	if off != len(body) {
		return newState(), false
	}
	return st, true
}
