package sig

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestGenerateAndLoadKeystores(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateKeystores(dir, 3, 7); err != nil {
		t.Fatal(err)
	}
	var keys [3]*NodeKeys
	for i := 0; i < 3; i++ {
		k, err := LoadKeystore(KeystorePath(dir, uint32(i)))
		if err != nil {
			t.Fatal(err)
		}
		if k.Self() != uint32(i) {
			t.Fatalf("Self = %d, want %d", k.Self(), i)
		}
		keys[i] = k
	}
	// Cross-node sign/verify through the file round trip.
	msg := []byte("deployment message")
	tag := keys[0].Sign(0, msg)
	for i := 0; i < 3; i++ {
		if !keys[i].Verify(0, msg, tag) {
			t.Fatalf("node %d rejected node 0's signature", i)
		}
		if keys[i].Verify(1, msg, tag) {
			t.Fatalf("node %d verified the signature under the wrong identity", i)
		}
	}
}

func TestKeystoreMatchesDirectScheme(t *testing.T) {
	// Keys generated with the same seed are the same whether used directly
	// or through the file round trip.
	dir := t.TempDir()
	if err := GenerateKeystores(dir, 2, 42); err != nil {
		t.Fatal(err)
	}
	direct, err := NewEd25519(2, 42)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadKeystore(KeystorePath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("m")
	if !direct.Verify(1, msg, loaded.Sign(1, msg)) {
		t.Fatal("keystore and direct scheme disagree")
	}
}

func TestKeystoreRefusesToSignForOthers(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateKeystores(dir, 2, 1); err != nil {
		t.Fatal(err)
	}
	k, err := LoadKeystore(KeystorePath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("signing for another node did not panic")
		}
	}()
	k.Sign(1, []byte("m"))
}

func TestKeystorePrivateFileMode(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateKeystores(dir, 1, 1); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(KeystorePath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o600 {
		t.Fatalf("key file mode = %v, want 0600", info.Mode().Perm())
	}
}

func TestLoadKeystoreErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadKeystore(dir + "/absent.json"); err == nil {
		t.Error("missing file accepted")
	}
	bad := dir + "/bad.json"
	os.WriteFile(bad, []byte("{not json"), 0o600)
	if _, err := LoadKeystore(bad); err == nil {
		t.Error("garbage file accepted")
	}
	// Public-only bundle has no private key.
	os.WriteFile(bad, []byte(`{"public":{"0":"00"}}`), 0o600)
	if _, err := LoadKeystore(bad); err == nil {
		t.Error("public-only bundle accepted as node keys")
	}
}

// TestLoadKeystoreRejectsNonCanonicalIDs adds one more public-key entry to a
// good file under an id that is not plain decimal. Sscanf("%d") took the
// first three as 12, 5 and 7, and let "01" replace node 1's key.
func TestLoadKeystoreRejectsNonCanonicalIDs(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateKeystores(dir, 2, 1); err != nil {
		t.Fatal(err)
	}
	path := KeystorePath(dir, 0)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"12abc", "+5", " 7", "01", "-1", "4294967296", ""} {
		var file keystoreFile
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatal(err)
		}
		file.Public[id] = file.Public["0"]
		if err := writeKeystore(path, file, 0o600); err != nil {
			t.Fatal(err)
		}
		_, err := LoadKeystore(path)
		if err == nil {
			t.Errorf("node id %q accepted", id)
		} else if !strings.Contains(err.Error(), path) {
			t.Errorf("node id %q: error %q does not name the file", id, err)
		}
	}
}

func TestLoadKeystoreDetectsTampering(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateKeystores(dir, 2, 1); err != nil {
		t.Fatal(err)
	}
	path := KeystorePath(dir, 0)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	// Swap in node 1's public key for node 0: the private key no longer
	// matches and the load must fail.
	pub, ok := file["public"].(map[string]any)
	if !ok {
		t.Fatal("unexpected keystore layout")
	}
	pub["0"] = pub["1"]
	mutated, _ := json.Marshal(file)
	os.WriteFile(path, mutated, 0o600)
	if _, err := LoadKeystore(path); err == nil {
		t.Fatal("mismatched private/public pair accepted")
	}
}

func TestKeystoreFilesAreHexJSON(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateKeystores(dir, 1, 1); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(KeystorePath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"public"`) || !strings.Contains(string(raw), `"private"`) {
		t.Fatal("keystore layout unexpected")
	}
}
