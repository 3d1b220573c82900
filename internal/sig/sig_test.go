package sig

import (
	"bytes"
	"testing"
	"testing/quick"

	"bbcast/internal/alloctest"
)

func schemes(t *testing.T, n int) []Scheme {
	t.Helper()
	ed, err := NewEd25519(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []Scheme{ed, NewHMAC(n, 1)}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	for _, s := range schemes(t, 4) {
		t.Run(s.Name(), func(t *testing.T) {
			msg := []byte("broadcast payload")
			tag := s.Sign(2, msg)
			if !s.Verify(2, msg, tag) {
				t.Fatal("valid signature rejected")
			}
		})
	}
}

func TestVerifyRejectsWrongSigner(t *testing.T) {
	for _, s := range schemes(t, 4) {
		t.Run(s.Name(), func(t *testing.T) {
			msg := []byte("m")
			tag := s.Sign(1, msg)
			if s.Verify(2, msg, tag) {
				t.Fatal("signature by node 1 verified as node 2 (impersonation)")
			}
		})
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	for _, s := range schemes(t, 2) {
		t.Run(s.Name(), func(t *testing.T) {
			msg := []byte("original")
			tag := s.Sign(0, msg)
			if s.Verify(0, []byte("originaX"), tag) {
				t.Fatal("tampered message verified")
			}
		})
	}
}

func TestVerifyRejectsTamperedTag(t *testing.T) {
	for _, s := range schemes(t, 2) {
		t.Run(s.Name(), func(t *testing.T) {
			msg := []byte("m")
			tag := s.Sign(0, msg)
			for i := range tag {
				bad := make([]byte, len(tag))
				copy(bad, tag)
				bad[i] ^= 0x01
				if s.Verify(0, msg, bad) {
					t.Fatalf("tag with flipped bit at byte %d verified", i)
				}
			}
		})
	}
}

func TestVerifyUnknownNode(t *testing.T) {
	for _, s := range schemes(t, 2) {
		if s.Verify(99, []byte("m"), []byte("sig")) {
			t.Fatalf("%s: unknown node verified", s.Name())
		}
	}
}

func TestSignUnknownNodePanics(t *testing.T) {
	for _, s := range schemes(t, 2) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: signing for unregistered node should panic", s.Name())
				}
			}()
			s.Sign(99, []byte("m"))
		}()
	}
}

func TestSigSizeMatches(t *testing.T) {
	for _, s := range schemes(t, 2) {
		tag := s.Sign(0, []byte("m"))
		if len(tag) != s.SigSize() {
			t.Errorf("%s: SigSize()=%d but tag is %d bytes", s.Name(), s.SigSize(), len(tag))
		}
	}
}

func TestDeterministicKeyGeneration(t *testing.T) {
	a := NewHMAC(3, 42)
	b := NewHMAC(3, 42)
	msg := []byte("m")
	if !bytes.Equal(a.Sign(1, msg), b.Sign(1, msg)) {
		t.Fatal("same seed produced different HMAC keys")
	}
	c := NewHMAC(3, 43)
	if bytes.Equal(a.Sign(1, msg), c.Sign(1, msg)) {
		t.Fatal("different seeds produced identical HMAC keys")
	}
	e1, err := NewEd25519(3, 42)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEd25519(3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1.Sign(1, msg), e2.Sign(1, msg)) {
		t.Fatal("same seed produced different ed25519 keys")
	}
}

func TestEmptyMessage(t *testing.T) {
	for _, s := range schemes(t, 1) {
		tag := s.Sign(0, nil)
		if !s.Verify(0, nil, tag) {
			t.Errorf("%s: empty message signature rejected", s.Name())
		}
	}
}

// TestSchemeLaw holds every scheme to the law on Scheme that VerifyMemo relies
// on, Verify(id, m, Sign(id, m)), and to its refusals: one flipped bit in the
// tag or in the message, or another registered id, must not verify.
func TestSchemeLaw(t *testing.T) {
	const n = 4
	ed, err := NewEd25519(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := GenerateKeystores(dir, n, 3); err != nil {
		t.Fatal(err)
	}
	var nodes [n]*NodeKeys
	for i := range nodes {
		if nodes[i], err = LoadKeystore(KeystorePath(dir, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	hm := NewHMAC(n, 3)
	memo := newVerifyMemo(ed, 8) // a small table, so signed records get evicted
	for _, s := range []struct {
		name   string
		sign   func(id uint32, msg []byte) []byte
		verify func(id uint32, msg, tag []byte) bool
	}{
		{"ed25519", ed.Sign, ed.Verify},
		{"hmac-sim", hm.Sign, hm.Verify},
		// A deployed node signs only as itself; the next node verifies.
		{"ed25519-keystore",
			func(id uint32, msg []byte) []byte { return nodes[id].Sign(id, msg) },
			func(id uint32, msg, tag []byte) bool { return nodes[(id+1)%n].Verify(id, msg, tag) }},
		{"verify-memo", memo.Sign, memo.Verify},
	} {
		t.Run(s.name, func(t *testing.T) {
			law := func(idRaw uint8, msg []byte, at uint16) bool {
				id := uint32(idRaw) % n
				other := (id + 1 + uint32(at)%(n-1)) % n
				tag := s.sign(id, msg)
				return s.verify(id, msg, tag) &&
					!s.verify(id, msg, flipBit(tag, int(at))) &&
					(len(msg) == 0 || !s.verify(id, flipBit(msg, int(at)), tag)) &&
					!s.verify(other, msg, tag)
			}
			if err := quick.Check(law, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: messages differing in any byte produce different tags (collision
// resistance smoke test).
func TestQuickDistinctMessagesDistinctTags(t *testing.T) {
	s := NewHMAC(1, 7)
	f := func(msg []byte, idx uint16, delta byte) bool {
		if len(msg) == 0 || delta == 0 {
			return true
		}
		other := make([]byte, len(msg))
		copy(other, msg)
		other[int(idx)%len(msg)] ^= delta
		return !bytes.Equal(s.Sign(0, msg), s.Sign(0, other))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHMACVerifyDoesNotAllocate is the scheme's allocation ceiling: the
// simulator verifies more than a million tags per benchmark run, all against
// scratch held under the scheme's mutex.
func TestHMACVerifyDoesNotAllocate(t *testing.T) {
	s := NewHMAC(4, 1)
	msg := []byte("broadcast payload")
	tag := s.Sign(2, msg)
	forged := bytes.Repeat([]byte{0xAB}, len(tag))
	alloctest.AtMost(t, 0, func() {
		if !s.Verify(2, msg, tag) || s.Verify(2, msg, forged) {
			t.Fatal("verify gave the wrong answer")
		}
	})
}
