// Package sig provides the digital-signature substrate of the protocol.
//
// The paper assumes each device holds a private key and can obtain every
// other device's public key (it uses DSA; §2, footnote 3). Two schemes are
// provided behind one interface:
//
//   - Ed25519Scheme: real public-key signatures from the standard library,
//     suitable for deployments over a real transport.
//   - HMACScheme: a fast symmetric simulation stand-in (HMAC-SHA256 with a
//     per-node secret held by an omniscient registry). It preserves the one
//     property the protocol needs — a party that does not hold node p's key
//     cannot produce a tag that verifies as p's — because the adversary API
//     never exposes other nodes' keys. Large parameter sweeps use it to keep
//     simulation time reasonable.
//
// A Registry plays the role of the PKI the paper presumes exists.
package sig

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"sync"
)

// Scheme signs and verifies on behalf of registered nodes.
//
// Implementations must be safe for concurrent Verify/Sign after all nodes
// have been registered.
//
// Law: Verify(id, msg, Sign(id, msg)) is true for every id Sign accepts and
// every msg. VerifyMemo relies on it to answer for the signatures it made, and
// TestSchemeLaw holds every scheme here to it.
type Scheme interface {
	// Sign produces node id's signature over msg. It panics if id is not
	// registered (a programming error in simulation setup).
	Sign(id uint32, msg []byte) []byte
	// Verify reports whether tag is id's valid signature over msg.
	Verify(id uint32, msg, tag []byte) bool
	// SigSize returns the byte length of signatures, used for airtime
	// accounting.
	SigSize() int
	// Name identifies the scheme in reports.
	Name() string
}

// Ed25519Scheme implements Scheme with real Ed25519 keys, indexed by node id
// (ids are 0..n-1 by construction).
type Ed25519Scheme struct {
	priv []ed25519.PrivateKey
	pub  []ed25519.PublicKey
}

var _ Scheme = (*Ed25519Scheme)(nil)

// NewEd25519 generates keys for node ids 0..n-1 deterministically from seed.
func NewEd25519(n int, seed int64) (*Ed25519Scheme, error) {
	s := &Ed25519Scheme{
		priv: make([]ed25519.PrivateKey, n),
		pub:  make([]ed25519.PublicKey, n),
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		seedBytes := make([]byte, ed25519.SeedSize)
		if _, err := rng.Read(seedBytes); err != nil {
			return nil, fmt.Errorf("generate key %d: %w", i, err)
		}
		priv := ed25519.NewKeyFromSeed(seedBytes)
		s.priv[i] = priv
		pubKey, ok := priv.Public().(ed25519.PublicKey)
		if !ok {
			return nil, fmt.Errorf("generate key %d: unexpected public key type", i)
		}
		s.pub[i] = pubKey
	}
	return s, nil
}

// Sign implements Scheme.
func (s *Ed25519Scheme) Sign(id uint32, msg []byte) []byte {
	if int(id) >= len(s.priv) {
		panic(fmt.Sprintf("sig: no key registered for node %d", id))
	}
	return ed25519.Sign(s.priv[id], msg)
}

// Verify implements Scheme.
func (s *Ed25519Scheme) Verify(id uint32, msg, tag []byte) bool {
	if int(id) >= len(s.pub) || len(tag) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(s.pub[id], msg, tag)
}

// SigSize implements Scheme.
func (s *Ed25519Scheme) SigSize() int { return ed25519.SignatureSize }

// Name implements Scheme.
func (s *Ed25519Scheme) Name() string { return "ed25519" }

// HMACScheme implements Scheme with per-node HMAC-SHA256 keys held by an
// omniscient registry. Simulation only: verification consults the registry,
// which stands in for the PKI. Tags are 32 bytes, in the same size class as
// the 40-byte DSA signatures the paper's implementation used, so airtime
// accounting remains representative.
//
// Keyed HMAC states are cached per node and reused via Reset, which restores
// the precomputed inner/outer pad digests instead of re-hashing the padded
// key on every call — signing dominates the simulator's CPU profile, and the
// cache removes roughly half its hash blocks and nearly all its allocations.
type HMACScheme struct {
	keys [][]byte

	mu   sync.Mutex
	macs []hash.Hash
	// idb and want are scratch for tag and Verify, guarded by mu: locals
	// would escape through the hash.Hash interface and cost an allocation per
	// call.
	idb  [4]byte
	want [hmacTagSize]byte
}

var _ Scheme = (*HMACScheme)(nil)

// hmacTagSize is the byte length of HMAC-SHA256 tags.
const hmacTagSize = sha256.Size

// NewHMAC builds a simulation signature scheme for node ids 0..n-1,
// deterministic in seed.
func NewHMAC(n int, seed int64) *HMACScheme {
	s := &HMACScheme{keys: make([][]byte, n), macs: make([]hash.Hash, n)}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		k := make([]byte, 32)
		rng.Read(k)
		s.keys[i] = k
	}
	return s
}

// tag appends node id's tag over msg to dst. The caller must hold s.mu.
func (s *HMACScheme) tag(dst []byte, id uint32, msg []byte) []byte {
	mac := s.macs[id]
	if mac == nil {
		mac = hmac.New(sha256.New, s.keys[id])
		s.macs[id] = mac
	} else {
		mac.Reset()
	}
	binary.LittleEndian.PutUint32(s.idb[:], id)
	mac.Write(s.idb[:])
	mac.Write(msg)
	return mac.Sum(dst)
}

// Sign implements Scheme.
func (s *HMACScheme) Sign(id uint32, msg []byte) []byte {
	if int(id) >= len(s.keys) {
		panic(fmt.Sprintf("sig: no key registered for node %d", id))
	}
	s.mu.Lock()
	out := s.tag(make([]byte, 0, hmacTagSize), id, msg)
	s.mu.Unlock()
	return out
}

// Verify implements Scheme.
func (s *HMACScheme) Verify(id uint32, msg, tag []byte) bool {
	if int(id) >= len(s.keys) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return hmac.Equal(tag, s.tag(s.want[:0], id, msg))
}

// SigSize implements Scheme.
func (s *HMACScheme) SigSize() int { return hmacTagSize }

// Name implements Scheme.
func (s *HMACScheme) Name() string { return "hmac-sim" }
