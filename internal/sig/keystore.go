package sig

import (
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// ErrNoPrivateKey is returned when a loaded key file lacks the private key
// (e.g. a public-only bundle was passed where node keys were needed).
var ErrNoPrivateKey = errors.New("sig: keystore holds no private key for this node")

// keystoreFile is the on-disk JSON layout. Hex encoding keeps files
// greppable and diff-friendly.
type keystoreFile struct {
	// Self is the node id the private key belongs to (absent for a
	// public-only bundle).
	Self *uint32 `json:"self,omitempty"`
	// Private is the hex Ed25519 private key (only in per-node files).
	Private string `json:"private,omitempty"`
	// Public maps node id (decimal string) to hex Ed25519 public key.
	Public map[string]string `json:"public"`
}

// NodeKeys is one node's deployable key material: its own private key and
// the PKI (all public keys). It implements Scheme, so it plugs directly into
// the protocol: Sign only works for the owning node.
type NodeKeys struct {
	self uint32
	priv ed25519.PrivateKey
	pub  map[uint32]ed25519.PublicKey
}

var _ Scheme = (*NodeKeys)(nil)

// Self returns the owning node id.
func (k *NodeKeys) Self() uint32 { return k.self }

// Sign implements Scheme. It panics if id is not the owning node — a node
// must never be asked to sign for somebody else.
func (k *NodeKeys) Sign(id uint32, msg []byte) []byte {
	if id != k.self || k.priv == nil {
		panic(fmt.Sprintf("sig: node %d cannot sign for node %d", k.self, id))
	}
	return ed25519.Sign(k.priv, msg)
}

// Verify implements Scheme.
func (k *NodeKeys) Verify(id uint32, msg, tag []byte) bool {
	pub, ok := k.pub[id]
	if !ok || len(tag) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(pub, msg, tag)
}

// SigSize implements Scheme.
func (k *NodeKeys) SigSize() int { return ed25519.SignatureSize }

// Name implements Scheme.
func (k *NodeKeys) Name() string { return "ed25519-keystore" }

// Known returns the node ids with registered public keys, sorted.
func (k *NodeKeys) Known() []uint32 {
	out := make([]uint32, 0, len(k.pub))
	for id := range k.pub {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GenerateKeystores produces one key file per node in dir
// (node-<id>.keys.json, private key + full PKI), ready to distribute to the
// devices of a real deployment.
func GenerateKeystores(dir string, n int, seed int64) error {
	scheme, err := NewEd25519(n, seed)
	if err != nil {
		return err
	}
	pub := make(map[string]string, n)
	for i := 0; i < n; i++ {
		pub[strconv.Itoa(i)] = hex.EncodeToString(scheme.pub[i])
	}
	for i := 0; i < n; i++ {
		self := uint32(i)
		file := keystoreFile{
			Self:    &self,
			Private: hex.EncodeToString(scheme.priv[self]),
			Public:  pub,
		}
		if err := writeKeystore(keystorePath(dir, i), file, 0o600); err != nil {
			return err
		}
	}
	return nil
}

// keystorePath names node i's key file in dir.
func keystorePath(dir string, i int) string {
	return fmt.Sprintf("%s/node-%d.keys.json", dir, i)
}

// KeystorePath exposes the per-node key file naming convention.
func KeystorePath(dir string, id uint32) string { return keystorePath(dir, int(id)) }

func writeKeystore(path string, file keystoreFile, mode os.FileMode) error {
	// Deterministic field order for reproducible files.
	data, err := marshalKeystore(file)
	if err != nil {
		return fmt.Errorf("sig: encode keystore: %w", err)
	}
	if err := os.WriteFile(path, data, mode); err != nil {
		return fmt.Errorf("sig: write keystore: %w", err)
	}
	return nil
}

func marshalKeystore(file keystoreFile) ([]byte, error) {
	// json.Marshal writes map keys sorted already; pretty-print for humans.
	return json.MarshalIndent(file, "", "  ")
}

// LoadKeystore reads one node's key file.
func LoadKeystore(path string) (*NodeKeys, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sig: read keystore: %w", err)
	}
	var file keystoreFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("sig: parse keystore %s: %w", path, err)
	}
	if file.Self == nil || file.Private == "" {
		return nil, ErrNoPrivateKey
	}
	privBytes, err := hex.DecodeString(file.Private)
	if err != nil || len(privBytes) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("sig: keystore %s: bad private key", path)
	}
	keys := &NodeKeys{
		self: *file.Self,
		priv: ed25519.PrivateKey(privBytes),
		pub:  make(map[uint32]ed25519.PublicKey, len(file.Public)),
	}
	ids := make([]string, 0, len(file.Public))
	for id := range file.Public {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, idStr := range ids {
		// Canonical decimal only, so that no two keys of the file name one
		// node: ParseUint alone would let "05" replace the public key of "5".
		id64, err := strconv.ParseUint(idStr, 10, 32)
		if err != nil || strconv.FormatUint(id64, 10) != idStr {
			return nil, fmt.Errorf("sig: keystore %s: bad node id %q", path, idStr)
		}
		id := uint32(id64)
		pubBytes, err := hex.DecodeString(file.Public[idStr])
		if err != nil || len(pubBytes) != ed25519.PublicKeySize {
			return nil, fmt.Errorf("sig: keystore %s: bad public key for %s", path, idStr)
		}
		keys.pub[id] = ed25519.PublicKey(pubBytes)
	}
	if _, ok := keys.pub[keys.self]; !ok {
		return nil, fmt.Errorf("sig: keystore %s: own public key missing", path)
	}
	// Cross-check: the private key must match the registered public key.
	derived, ok := keys.priv.Public().(ed25519.PublicKey)
	if !ok || !derived.Equal(keys.pub[keys.self]) {
		return nil, fmt.Errorf("sig: keystore %s: private key does not match public key", path)
	}
	return keys, nil
}
