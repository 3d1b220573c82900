// Package persist is the durable-state layer under the broadcast protocol:
// a periodic snapshot plus a CRC-framed append-only record log of delivered
// digests, the origination sequence counter, and detector suspicion epochs.
//
// The layer is deliberately loss-tolerant: every record and the snapshot are
// integrity-framed, and Open replays the snapshot then the log, truncating
// the log at the first bad record (a torn tail from a crash mid-append, or a
// flipped bit from a failing flash page). Whatever survives the truncation is
// the recovered state — the protocol above treats durable state as a dedup
// and catch-up accelerator, never as a correctness requirement, so "less
// state than we wrote" is always safe.
//
// Two device implementations back the same store: MemDevice (a virtual
// in-simulation byte store, with deterministic seeded corruption injection
// for crash-recovery scenarios) and FileDevice (snapshot + log files for the
// live UDP node, with atomic snapshot replacement via rename).
package persist

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
)

// Device is the byte-level storage a Store persists into: one snapshot blob
// (replaced wholesale) and one append-only log.
type Device interface {
	// ReadSnapshot returns the current snapshot blob (nil when none exists).
	ReadSnapshot() ([]byte, error)
	// WriteSnapshot atomically replaces the snapshot blob.
	WriteSnapshot(b []byte) error
	// ReadLog returns the full log contents (nil when empty).
	ReadLog() ([]byte, error)
	// AppendLog appends framed record bytes to the log. b is the caller's
	// to reuse once the call returns.
	AppendLog(b []byte) error
	// ResetLog truncates the log to empty (after a snapshot subsumed it).
	ResetLog() error
}

// MemDevice is the in-simulation Device: plain byte slices, plus seeded
// corruption injection so crash-recovery scenarios can model torn writes and
// bit rot deterministically.
type MemDevice struct {
	snapshot []byte
	log      []byte
}

var _ Device = (*MemDevice)(nil)

// ReadSnapshot implements Device.
func (m *MemDevice) ReadSnapshot() ([]byte, error) { return m.snapshot, nil }

// WriteSnapshot implements Device.
func (m *MemDevice) WriteSnapshot(b []byte) error {
	m.snapshot = append([]byte(nil), b...)
	return nil
}

// ReadLog implements Device.
func (m *MemDevice) ReadLog() ([]byte, error) { return m.log, nil }

// AppendLog implements Device.
func (m *MemDevice) AppendLog(b []byte) error {
	m.log = append(m.log, b...)
	return nil
}

// ResetLog implements Device.
func (m *MemDevice) ResetLog() error {
	m.log = nil
	return nil
}

// Corruption selects which storage faults Corrupt injects.
type Corruption struct {
	// TearTail truncates the log mid-record, as a crash during an append
	// would.
	TearTail bool
	// FlipBits flips this many randomly chosen bits across the log.
	FlipBits int
}

// Corrupt injects the configured storage faults into the device, drawing
// every position from rng so a seeded scenario replays the exact same
// damage. Corrupting an empty log is a no-op.
func (m *MemDevice) Corrupt(rng *rand.Rand, c Corruption) {
	if len(m.log) == 0 {
		return
	}
	if c.TearTail {
		// Cut a random number of tail bytes, at least one, at most a whole
		// record frame's worth — the shape of a crash mid-append.
		cut := rng.Intn(minInt(len(m.log), 64)) + 1
		m.log = m.log[:len(m.log)-cut]
	}
	for i := 0; i < c.FlipBits && len(m.log) > 0; i++ {
		pos := rng.Intn(len(m.log))
		bit := byte(1) << uint(rng.Intn(8))
		m.log[pos] ^= bit
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// FileDevice stores the snapshot and log as two files in a directory, for
// the live UDP node. Snapshot replacement is atomic (write to a temp file,
// then rename); log appends go through a single O_APPEND handle.
type FileDevice struct {
	dir     string
	logFile *os.File
}

var _ Device = (*FileDevice)(nil)

// OpenDir opens (creating if needed) a file-backed device rooted at dir.
func OpenDir(dir string) (*FileDevice, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create %q: %w", dir, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "records.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open log: %w", err)
	}
	return &FileDevice{dir: dir, logFile: f}, nil
}

// Close releases the log handle.
func (d *FileDevice) Close() error {
	if d.logFile == nil {
		return nil
	}
	err := d.logFile.Close()
	d.logFile = nil
	return err
}

func (d *FileDevice) snapshotPath() string { return filepath.Join(d.dir, "snapshot.bin") }
func (d *FileDevice) logPath() string      { return filepath.Join(d.dir, "records.log") }

// ReadSnapshot implements Device.
func (d *FileDevice) ReadSnapshot() ([]byte, error) {
	b, err := os.ReadFile(d.snapshotPath())
	if os.IsNotExist(err) {
		return nil, nil
	}
	return b, err
}

// WriteSnapshot implements Device: write-temp-then-rename so a crash during
// the write leaves the previous snapshot intact.
func (d *FileDevice) WriteSnapshot(b []byte) error {
	tmp := d.snapshotPath() + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, d.snapshotPath())
}

// ReadLog implements Device.
func (d *FileDevice) ReadLog() ([]byte, error) {
	b, err := os.ReadFile(d.logPath())
	if os.IsNotExist(err) {
		return nil, nil
	}
	return b, err
}

// AppendLog implements Device.
func (d *FileDevice) AppendLog(b []byte) error {
	if d.logFile == nil {
		return fmt.Errorf("persist: log closed")
	}
	_, err := d.logFile.Write(b)
	return err
}

// ResetLog implements Device.
func (d *FileDevice) ResetLog() error {
	if d.logFile == nil {
		return fmt.Errorf("persist: log closed")
	}
	return d.logFile.Truncate(0)
}
