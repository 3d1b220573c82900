package sig

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"bbcast/internal/alloctest"
)

// countingScheme counts what reaches the scheme behind a memo.
type countingScheme struct {
	Scheme
	verifies int
}

func (c *countingScheme) Verify(id uint32, msg, tag []byte) bool {
	c.verifies++
	return c.Scheme.Verify(id, msg, tag)
}

// memoQuestion is one Verify call.
type memoQuestion struct {
	id       uint32
	msg, tag []byte
}

const memoOracleNodes = 4

// memoOracle is the bare keyring and a pool of validly signed records, built
// once: signing is the expensive part and the records are read-only.
var memoOracle = sync.OnceValues(func() (*Ed25519Scheme, []memoQuestion) {
	ed, err := NewEd25519(memoOracleNodes, 22)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(22))
	pool := make([]memoQuestion, 24)
	for i := range pool {
		msg := make([]byte, rng.Intn(96)) // the empty message too
		rng.Read(msg)
		id := uint32(i % memoOracleNodes)
		pool[i] = memoQuestion{id: id, msg: msg, tag: ed.Sign(id, msg)}
	}
	return ed, pool
})

// memoRecord is a memoQuestion as a map key.
type memoRecord struct {
	id       uint32
	msg, tag string
}

func (q memoQuestion) record() memoRecord { return memoRecord{q.id, string(q.msg), string(q.tag)} }

// runVerifyMemo decodes data into a table size (2–16 slots, so that
// collisions and evictions happen all the time) and a sequence of calls, asks
// the memo and the bare Ed25519 keyring each one, and compares every answer.
// A call signs a pool record through the memo, verifies a fresh valid record,
// or verifies a variant of an earlier call at a decoded distance: the same
// again, the same msg and tag under another id, one flipped bit in tag or
// msg, a short or over-long tag, an unregistered id. Two verifications must
// not reach the inner scheme at all: a repeat of the call just made, and one
// of a record this memo signed while nothing has been written to the table
// since, so that the slot still holds what Sign filed.
func runVerifyMemo(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	bare, pool := memoOracle()
	inner := &countingScheme{Scheme: bare}
	memo := newVerifyMemo(inner, 2+next()%15)

	var history []memoQuestion
	// writes counts the memo's table writes: each Sign, and each Verify that
	// reached the inner scheme. signedAt maps a record the memo signed to the
	// count just after its Sign.
	writes := 0
	signedAt := map[memoRecord]int{}
	for step := 0; len(data) > 0; step++ {
		op := next() % 10
		var q memoQuestion
		if op < 2 || len(history) == 0 {
			q = pool[next()%len(pool)]
			if op == 1 {
				if tag := memo.Sign(q.id, q.msg); !bytes.Equal(tag, q.tag) {
					t.Fatalf("step %d: memo signed %x, ed25519 signs %x", step, tag, q.tag)
				}
				writes++
				signedAt[q.record()] = writes
				history = append(history, q)
				continue
			}
			op = 0
		} else {
			// Short distances mostly: the entry is then likely still in its slot.
			d := next()
			if d%4 != 0 {
				d %= 4
			}
			q = history[len(history)-1-d%len(history)]
		}
		switch op {
		case 0, 2, 3: // a fresh record, or an earlier call again
		case 4:
			q.id = (q.id + 1 + uint32(next()%(memoOracleNodes-1))) % memoOracleNodes
		case 5:
			q.tag = flipBit(q.tag, next())
		case 6:
			q.msg = flipBit(q.msg, next())
		case 7:
			q.tag = q.tag[:len(q.tag)*(next()%4)/4]
		case 8:
			q.tag = append(bytes.Clone(q.tag), byte(next()))
		case 9:
			q.id = memoOracleNodes + uint32(next())
		}
		before := inner.verifies
		got, want := memo.Verify(q.id, q.msg, q.tag), bare.Verify(q.id, q.msg, q.tag)
		if got != want {
			t.Fatalf("step %d (op %d, %d slots): memo says %v, ed25519 says %v for id=%d msg=%x tag=%x",
				step, op, len(memo.slots), got, want, q.id, q.msg, q.tag)
		}
		if inner.verifies != before {
			if n := len(history); n > 0 && history[n-1].record() == q.record() {
				t.Fatalf("step %d: a repeat of the previous call reached the inner scheme", step)
			}
			if at, ok := signedAt[q.record()]; ok && at == writes {
				t.Fatalf("step %d: a record the memo signed, still in its slot, reached the inner scheme", step)
			}
			writes++
		}
		history = append(history, q)
	}
}

// flipBit returns a copy of b with one bit flipped, chosen by at.
func flipBit(b []byte, at int) []byte {
	out := bytes.Clone(b)
	if len(out) > 0 {
		out[at%len(out)] ^= 1 << (at % 8)
	}
	return out
}

// TestVerifyMemoMatchesScheme drives the differential check with seeded
// random call sequences over every table size.
func TestVerifyMemoMatchesScheme(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, 100+rng.Intn(200))
		rng.Read(data)
		data[0] = byte(seed) // table-size sweep
		runVerifyMemo(t, data)
	}
}

// FuzzVerifyMemo lets the fuzzer look for a call sequence on which the memo
// and the scheme it decorates disagree.
func FuzzVerifyMemo(f *testing.F) {
	f.Add([]byte{0, 0, 3, 4, 0, 1, 2, 0, 5, 0, 7, 2, 0})       // valid, then another id, then a flipped tag bit, again
	f.Add([]byte{1, 0, 5, 5, 0, 9, 2, 0, 6, 0, 3, 2, 1, 2, 0}) // a forged tag and its repeat
	f.Add([]byte{14, 0, 1, 0, 2, 0, 3, 7, 0, 1, 8, 0, 200, 9, 0, 7, 2, 3, 2, 2})
	f.Add([]byte{0, 1, 5, 2, 0, 4, 0, 0})                           // sign, verify it at once, then under the next id
	f.Add([]byte{3, 1, 10, 5, 0, 17, 2, 0, 2, 1})                   // sign, a flipped tag bit and its repeat, the signed record
	f.Add([]byte{7, 1, 2, 6, 0, 33, 7, 0, 2, 8, 0, 9, 2, 0})        // sign, a flipped msg bit, short and long tags of it
	f.Add([]byte{15, 1, 4, 1, 9, 1, 14, 2, 2, 2, 1, 2, 0, 4, 1, 0}) // three signs, each verified back
	f.Fuzz(runVerifyMemo)
}

// TestVerifyMemoPassesThrough holds the rest of the decoration: signatures
// are the inner scheme's, and reports still name it.
func TestVerifyMemoPassesThrough(t *testing.T) {
	bare, _ := memoOracle()
	memo := NewVerifyMemo(bare)
	msg := []byte("m")
	if !bytes.Equal(memo.Sign(1, msg), bare.Sign(1, msg)) {
		t.Error("Sign differs from the inner scheme's")
	}
	if memo.Name() != "ed25519" || memo.SigSize() != bare.SigSize() {
		t.Errorf("Name() = %q, SigSize() = %d; want the inner scheme's", memo.Name(), memo.SigSize())
	}
	if len(memo.slots) != verifyMemoSlots {
		t.Errorf("%d slots, want %d", len(memo.slots), verifyMemoSlots)
	}
}

// TestVerifyMemoConcurrent holds the Scheme contract, concurrent Sign and
// Verify after registration: goroutines fight over a four-slot table and every
// answer must still be the bare scheme's. It is the race detector's target.
func TestVerifyMemoConcurrent(t *testing.T) {
	bare, pool := memoOracle()
	memo := newVerifyMemo(bare, 4)
	forged := bytes.Repeat([]byte{0xAB}, bare.SigSize())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				q := pool[(g+i)%8]
				if i%4 == g && !bytes.Equal(memo.Sign(q.id, q.msg), q.tag) {
					t.Errorf("goroutine %d: record %d signed differently", g, (g+i)%8)
				}
				if !memo.Verify(q.id, q.msg, q.tag) {
					t.Errorf("goroutine %d: valid record %d refused", g, (g+i)%8)
				}
				if memo.Verify(q.id, q.msg, forged) || memo.Verify(q.id+1, q.msg, q.tag) {
					t.Errorf("goroutine %d: forged record %d accepted", g, (g+i)%8)
				}
			}
		}()
	}
	wg.Wait()
}

// stubScheme answers without allocating, so an allocation counted around a
// miss is the memo's own. Its verdicts ignore the tag, which breaks the Scheme
// law: a memo may ask it Verify questions but must not sign through it.
type stubScheme struct{ verifies int }

func (s *stubScheme) Sign(uint32, []byte) []byte { panic("stubScheme: Verify only") }
func (s *stubScheme) Verify(_ uint32, msg, _ []byte) bool {
	s.verifies++
	return len(msg)%2 == 0
}
func (s *stubScheme) SigSize() int { return 0 }
func (s *stubScheme) Name() string { return "stub" }

// TestVerifyMemoDoesNotAllocate is the memo's allocation ceiling: the key is
// hashed from scratch held under the mutex, on a hit, on a miss and when Sign
// files its own signature alike.
func TestVerifyMemoDoesNotAllocate(t *testing.T) {
	bare, pool := memoOracle()
	q := pool[len(pool)-1]
	forged := bytes.Repeat([]byte{0xAB}, len(q.tag))

	t.Run("hit", func(t *testing.T) {
		inner := &countingScheme{Scheme: bare}
		memo := NewVerifyMemo(inner)
		alloctest.AtMost(t, 0, func() {
			if !memo.Verify(q.id, q.msg, q.tag) || memo.Verify(q.id, q.msg, forged) {
				t.Fatal("verify gave the wrong answer")
			}
		})
		if inner.verifies != 2 {
			t.Errorf("%d calls reached the inner scheme, want one per distinct question", inner.verifies)
		}
	})
	t.Run("miss", func(t *testing.T) {
		// One slot and two alternating questions: every call evicts the other.
		inner := &stubScheme{}
		memo := newVerifyMemo(inner, 1)
		even, odd := make([]byte, 64), make([]byte, 65)
		calls := 0
		alloctest.AtMost(t, 0, func() {
			calls += 2
			if !memo.Verify(0, even, q.tag) || memo.Verify(0, odd, q.tag) {
				t.Fatal("verify gave the wrong answer")
			}
		})
		if inner.verifies != calls {
			t.Errorf("%d of %d calls reached the inner scheme, want all", inner.verifies, calls)
		}
	})
	t.Run("sign", func(t *testing.T) {
		inner := &countingScheme{Scheme: bare}
		memo := NewVerifyMemo(inner)
		own := testing.AllocsPerRun(100, func() { bare.Sign(q.id, q.msg) })
		alloctest.AtMost(t, own, func() { memo.Sign(q.id, q.msg) })
		if ok := memo.Verify(q.id, q.msg, q.tag); !ok || inner.verifies != 0 {
			t.Errorf("the signed record verified %v at the cost of %d keyring verifications, want true at none", ok, inner.verifies)
		}
	})
}
