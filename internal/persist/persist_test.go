package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"bbcast/internal/alloctest"
	"bbcast/internal/wire"
)

// frame wraps one record payload in the log framing.
func frame(payload []byte) []byte {
	out := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(payload))
	copy(out[frameHeader:], payload)
	return out
}

func deliveredRec(origin, seq uint32, digest uint64) []byte {
	p := make([]byte, 17)
	p[0] = recDelivered
	binary.LittleEndian.PutUint32(p[1:], origin)
	binary.LittleEndian.PutUint32(p[5:], seq)
	binary.LittleEndian.PutUint64(p[9:], digest)
	return p
}

func seqRec(seq uint32) []byte {
	p := make([]byte, 5)
	p[0] = recSeq
	binary.LittleEndian.PutUint32(p[1:], seq)
	return p
}

func suspicionRec(detector uint8, subject uint32, raised bool) []byte {
	p := make([]byte, 7)
	p[0] = recSuspicion
	p[1] = detector
	binary.LittleEndian.PutUint32(p[2:], subject)
	if raised {
		p[6] = 1
	}
	return p
}

func id(origin, seq uint32) wire.MsgID {
	return wire.MsgID{Origin: wire.NodeID(origin), Seq: wire.Seq(seq)}
}

// TestReplayTable drives Open through the recovery cases the log format is
// designed around: clean logs, torn tails, corrupted middle records, records
// with bad structure, and a snapshot the log extends.
func TestReplayTable(t *testing.T) {
	goodSnap := func() []byte {
		st := newState()
		st.Seq = 3
		st.Delivered[id(1, 1)] = DeliveredRec{Digest: 11, Gen: 0}
		st.Gen = 1
		return encodeSnapshot(st)
	}

	cases := map[string]struct {
		snapshot []byte
		log      []byte
		wantSeq  uint32
		wantIDs  []wire.MsgID
		wantLog  []byte // expected compacted log; nil means unchanged
	}{
		"empty log": {
			wantSeq: 0,
			wantIDs: nil,
		},
		"clean log": {
			log: bytes.Join([][]byte{
				frame(seqRec(7)),
				frame(deliveredRec(2, 1, 22)),
				frame(deliveredRec(2, 2, 23)),
			}, nil),
			wantSeq: 7,
			wantIDs: []wire.MsgID{id(2, 1), id(2, 2)},
		},
		"truncated tail": {
			// A torn final record: replay keeps everything before it and Open
			// compacts the log back to the valid prefix.
			log: append(
				frame(deliveredRec(2, 1, 22)),
				frame(deliveredRec(2, 2, 23))[:11]...),
			wantSeq: 0,
			wantIDs: []wire.MsgID{id(2, 1)},
			wantLog: frame(deliveredRec(2, 1, 22)),
		},
		"corrupted middle record": {
			// A flipped bit in the middle record's payload fails its CRC;
			// everything from there on is discarded even though the final
			// record is intact (no resynchronization heuristics).
			log: func() []byte {
				a := frame(deliveredRec(2, 1, 22))
				b := frame(deliveredRec(2, 2, 23))
				b[frameHeader+3] ^= 0x40
				c := frame(deliveredRec(2, 3, 24))
				return bytes.Join([][]byte{a, b, c}, nil)
			}(),
			wantSeq: 0,
			wantIDs: []wire.MsgID{id(2, 1)},
			wantLog: frame(deliveredRec(2, 1, 22)),
		},
		"bad record structure": {
			// Correct framing and CRC around a payload whose length does not
			// match its tag: structurally invalid, truncate there.
			log: append(
				frame(seqRec(9)),
				frame([]byte{recDelivered, 1, 2, 3})...),
			wantSeq: 9,
			wantIDs: nil,
			wantLog: frame(seqRec(9)),
		},
		"unknown tag": {
			log:     frame([]byte{0xEE, 1, 2}),
			wantSeq: 0,
			wantIDs: nil,
			wantLog: []byte{},
		},
		"snapshot plus log": {
			snapshot: goodSnap(),
			log: bytes.Join([][]byte{
				frame(seqRec(5)),
				frame(deliveredRec(4, 1, 44)),
			}, nil),
			wantSeq: 5,
			wantIDs: []wire.MsgID{id(1, 1), id(4, 1)},
		},
		"corrupt snapshot ignored": {
			snapshot: append(goodSnap(), 0xFF), // trailing byte → structurally invalid
			log:      frame(seqRec(2)),
			wantSeq:  2,
			wantIDs:  nil,
		},
	}

	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			dev := &MemDevice{snapshot: tc.snapshot, log: append([]byte(nil), tc.log...)}
			s, err := Open(dev)
			if err != nil {
				t.Fatal(err)
			}
			if s.Seq() != tc.wantSeq {
				t.Errorf("Seq = %d, want %d", s.Seq(), tc.wantSeq)
			}
			var wantIDs []wire.MsgID
			wantIDs = append(wantIDs, tc.wantIDs...)
			got := s.DeliveredSorted()
			if len(got) == 0 {
				got = nil
			}
			if len(wantIDs) == 0 {
				wantIDs = nil
			}
			if !reflect.DeepEqual(got, wantIDs) {
				t.Errorf("Delivered = %v, want %v", got, wantIDs)
			}
			wantLog := tc.log
			if tc.wantLog != nil {
				wantLog = tc.wantLog
			}
			if gotLog, _ := dev.ReadLog(); !bytes.Equal(gotLog, wantLog) {
				t.Errorf("log after Open = %x, want %x", gotLog, wantLog)
			}
		})
	}
}

// TestRecordReopenRoundTrip writes state through the public API, reopens the
// device, and expects identical recovered state — with and without an
// intervening snapshot compaction.
func TestRecordReopenRoundTrip(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		dev := &MemDevice{}
		s, err := Open(dev)
		if err != nil {
			t.Fatal(err)
		}
		s.RecordSeq(4)
		s.RecordDelivered(id(7, 1), 71)
		s.RecordDelivered(id(7, 2), 72)
		s.RecordSuspicion(DetectorTrust, 9, true)
		s.RecordSuspicion(DetectorMute, 5, true)
		s.RecordSuspicion(DetectorMute, 5, false) // cleared: must not survive
		if snapshot {
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if log, _ := dev.ReadLog(); len(log) != 0 {
				t.Fatal("snapshot did not truncate the log")
			}
			// Post-snapshot appends extend the compacted state.
			s.RecordDelivered(id(7, 3), 73)
		}
		back, err := Open(dev)
		if err != nil {
			t.Fatal(err)
		}
		if back.Seq() != 4 {
			t.Errorf("snapshot=%v: Seq = %d, want 4", snapshot, back.Seq())
		}
		wantN := 2
		if snapshot {
			wantN = 3
		}
		if back.Len() != wantN {
			t.Errorf("snapshot=%v: Len = %d, want %d", snapshot, back.Len(), wantN)
		}
		if rec, ok := back.Delivered(id(7, 2)); !ok || rec.Digest != 72 {
			t.Errorf("snapshot=%v: Delivered(7/2) = %+v, %v", snapshot, rec, ok)
		}
		sus := back.SuspicionsSorted()
		if len(sus) != 1 || sus[0] != (Suspicion{Detector: DetectorTrust, Subject: 9}) {
			t.Errorf("snapshot=%v: Suspicions = %+v, want only trust(9)", snapshot, sus)
		}
	}
}

func TestDeliveredCapEvictsOldest(t *testing.T) {
	dev := &MemDevice{}
	s, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	s.MaxDelivered = 4
	for i := uint32(1); i <= 6; i++ {
		s.RecordDelivered(id(1, i), uint64(i))
	}
	want := []wire.MsgID{id(1, 3), id(1, 4), id(1, 5), id(1, 6)}
	if got := s.DeliveredSorted(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Delivered = %v, want %v (oldest evicted first)", got, want)
	}
}

// scanNoteDelivered is noteDelivered as it was before the store kept its
// eviction order: making room scans the whole table for the oldest generation
// (ties broken by smallest id). It is the oracle for the ordered eviction.
func scanNoteDelivered(st *State, max int, id wire.MsgID, digest uint64) {
	if _, known := st.Delivered[id]; !known {
		for len(st.Delivered) >= max {
			var victim wire.MsgID
			var victimGen uint64
			found := false
			for id, rec := range st.Delivered {
				if !found || rec.Gen < victimGen || (rec.Gen == victimGen && id.Less(victim)) {
					victim, victimGen, found = id, rec.Gen, true
				}
			}
			delete(st.Delivered, victim)
		}
	}
	st.Delivered[id] = DeliveredRec{Digest: digest, Gen: st.Gen}
	st.Gen++
}

// TestDeliveredEvictionMatchesScan opens stores over replayed logs and over
// snapshots — well-formed ones, and crafted ones whose generations tie or run
// ahead of the counter, which no store writes but any file can hold — then
// records random deliveries (re-records included) under small caps: after
// every record the table must equal the one the scan would have left.
func TestDeliveredEvictionMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randID := func() wire.MsgID { return id(uint32(1+rng.Intn(3)), uint32(1+rng.Intn(12))) }
		dev := &MemDevice{}
		want := newState()
		if seed%3 != 0 {
			for n := rng.Intn(20); n > 0; n-- {
				gen := uint64(rng.Intn(6)) // few values: ties are the rule
				if seed%3 == 2 {
					gen = uint64(n) // distinct, as a store writes them
				}
				want.Delivered[randID()] = DeliveredRec{Digest: rng.Uint64(), Gen: gen}
			}
			want.Gen = uint64(rng.Intn(8)) // behind some records, level with or ahead of others
			if seed%3 == 2 {
				want.Gen = 21
			}
			dev.snapshot = encodeSnapshot(want)
		}
		max := 2 + rng.Intn(15)
		for n := rng.Intn(30); n > 0; n-- {
			rid, digest := randID(), rng.Uint64()
			dev.log = append(dev.log, frame(deliveredRec(uint32(rid.Origin), uint32(rid.Seq), digest))...)
			// Open replays under the default cap, which this log cannot reach.
			scanNoteDelivered(&want, DefaultMaxDelivered, rid, digest)
		}
		s, err := Open(dev)
		if err != nil {
			t.Fatal(err)
		}
		s.MaxDelivered = max
		for step := 0; step < 200; step++ {
			rid, digest := randID(), rng.Uint64()
			s.RecordDelivered(rid, digest)
			scanNoteDelivered(&want, max, rid, digest)
			if !reflect.DeepEqual(s.state, want) {
				t.Fatalf("seed %d step %d (record %v, cap %d): table\n%v\nscan leaves\n%v", seed, step, rid, max, s.state.Delivered, want.Delivered)
			}
			live := s.order[s.head:]
			if len(live) != len(s.state.Delivered) || !slices.IsSortedFunc(live, genID.compare) {
				t.Fatalf("seed %d step %d: eviction order %v does not list the table in (generation, id) order", seed, step, live)
			}
		}
	}
}

// TestDeliveredCapInsertIsNotAScan is TestStoreCapInsertIsNotAScan's twin for
// the durable layer: recording into a full delivered table evicts the head of
// the order (≈75× the cost below the cap when it scanned the table).
func TestDeliveredCapInsertIsNotAScan(t *testing.T) {
	alloctest.SkipUnderRace(t)
	record256 := func(prefill int) time.Duration {
		s, err := Open(&MemDevice{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < prefill; i++ {
			s.RecordDelivered(id(1, uint32(i+1)), uint64(i))
		}
		start := time.Now()
		for i := 0; i < 256; i++ {
			s.RecordDelivered(id(2, uint32(i+1)), uint64(i))
		}
		return time.Since(start)
	}
	below, atCap := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 5; i++ { // best of five: scheduling noise only ever adds
		below = min(below, record256(DefaultMaxDelivered/2))
		atCap = min(atCap, record256(DefaultMaxDelivered))
	}
	if atCap > 10*below {
		t.Fatalf("256 records into a full table took %v, %v below the cap: making room scans again", atCap, below)
	}
}

// TestCorruptDeterministic pins the seeded corruption injection: same seed,
// same damage, byte for byte.
func TestCorruptDeterministic(t *testing.T) {
	build := func() *MemDevice {
		dev := &MemDevice{}
		s, _ := Open(dev)
		for i := uint32(1); i <= 8; i++ {
			s.RecordDelivered(id(3, i), uint64(100+i))
		}
		return dev
	}
	a, b := build(), build()
	c := Corruption{TearTail: true, FlipBits: 3}
	a.Corrupt(rand.New(rand.NewSource(42)), c)
	b.Corrupt(rand.New(rand.NewSource(42)), c)
	if !bytes.Equal(a.log, b.log) {
		t.Fatal("same seed produced different corruption")
	}
	pristine := build()
	if bytes.Equal(a.log, pristine.log) {
		t.Fatal("corruption did not change the log")
	}
	// Whatever the damage, Open must recover a valid prefix without error.
	s, err := Open(a)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() > 8 {
		t.Fatalf("recovered %d deliveries from a log of 8", s.Len())
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dev, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	s.RecordSeq(11)
	s.RecordDelivered(id(2, 9), 29)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.RecordDelivered(id(2, 10), 30)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	dev2, err := OpenDir(dir) // same directory: a daemon restart
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	back, err := Open(dev2)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seq() != 11 || back.Len() != 2 {
		t.Fatalf("recovered Seq=%d Len=%d, want 11, 2", back.Seq(), back.Len())
	}
}

// FuzzReplayLog feeds arbitrary bytes through the log replay path: it must
// never panic, and the recovered byte count must be a valid prefix that
// replays to the same state a second time (truncation is idempotent).
func FuzzReplayLog(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame(seqRec(7)))
	f.Add(bytes.Join([][]byte{frame(deliveredRec(1, 2, 3)), frame(suspicionRec(DetectorTrust, 4, true))}, nil))
	torn := frame(deliveredRec(9, 9, 9))
	f.Add(torn[:len(torn)-3])
	f.Fuzz(func(t *testing.T, raw []byte) {
		s := &Store{state: newState()}
		valid := s.replay(raw)
		if valid < 0 || valid > len(raw) {
			t.Fatalf("valid = %d outside [0,%d]", valid, len(raw))
		}
		s2 := &Store{state: newState()}
		if again := s2.replay(raw[:valid]); again != valid {
			t.Fatalf("replay of valid prefix stopped at %d, want %d", again, valid)
		}
		if !reflect.DeepEqual(s.state, s2.state) {
			t.Fatal("replaying the valid prefix produced different state")
		}
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes through the snapshot decoder: it
// must never panic, and whatever decodes must re-encode to an equivalent
// snapshot.
func FuzzSnapshotDecode(f *testing.F) {
	st := newState()
	st.Seq = 5
	st.Delivered[id(1, 2)] = DeliveredRec{Digest: 3, Gen: 0}
	st.Gen = 1
	st.Suspicions[Suspicion{Detector: DetectorTrust, Subject: 7}] = true
	f.Add(encodeSnapshot(st))
	f.Add([]byte("BBPS"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		decoded, ok := decodeSnapshot(raw)
		if !ok {
			return
		}
		back, ok2 := decodeSnapshot(encodeSnapshot(decoded))
		if !ok2 {
			t.Fatal("re-encoded snapshot failed to decode")
		}
		if !reflect.DeepEqual(decoded, back) {
			t.Fatal("snapshot decode/encode/decode not a fixpoint")
		}
	})
}
