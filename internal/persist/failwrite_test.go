package persist

import (
	"errors"
	"testing"
)

var errDisk = errors.New("disk failed")

// failDevice wraps a Device and fails the k-th call (1-based) of one write
// method, counting that method's calls only; every other call goes through.
type failDevice struct {
	Device
	op    string // "ResetLog", "AppendLog" or "WriteSnapshot"
	k     int
	calls int
}

func (d *failDevice) fail(op string) bool {
	if op != d.op {
		return false
	}
	d.calls++
	return d.calls == d.k
}

func (d *failDevice) ResetLog() error {
	if d.fail("ResetLog") {
		return errDisk
	}
	return d.Device.ResetLog()
}

func (d *failDevice) AppendLog(b []byte) error {
	if d.fail("AppendLog") {
		return errDisk
	}
	return d.Device.AppendLog(b)
}

func (d *failDevice) WriteSnapshot(b []byte) error {
	if d.fail("WriteSnapshot") {
		return errDisk
	}
	return d.Device.WriteSnapshot(b)
}

// TestOpenReturnsRewriteErrors: a damaged log is rewritten as its valid
// prefix, and a failure of either write in that rewrite is Open's error, on
// both branches (an empty prefix, and one that must be appended back after the
// reset).
func TestOpenReturnsRewriteErrors(t *testing.T) {
	good := frame(deliveredRec(1, 1, 7))
	for _, tc := range []struct {
		name string
		log  []byte
		op   string
	}{
		{"nothing valid, reset fails", []byte{1, 2, 3}, "ResetLog"},
		{"valid prefix, reset fails", append(append([]byte{}, good...), 1, 2, 3), "ResetLog"},
		{"valid prefix, append fails", append(append([]byte{}, good...), 1, 2, 3), "AppendLog"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := &MemDevice{}
			if err := mem.AppendLog(tc.log); err != nil {
				t.Fatal(err)
			}
			s, err := Open(&failDevice{Device: mem, op: tc.op, k: 1})
			if !errors.Is(err, errDisk) || s != nil {
				t.Fatalf("Open = %v, %v; want nil, %v", s, err, errDisk)
			}
		})
	}
}

// TestSnapshotReturnsWriteErrors: a failed snapshot write or log reset is
// Snapshot's error, latched into Err, and later records are not written.
func TestSnapshotReturnsWriteErrors(t *testing.T) {
	for _, op := range []string{"WriteSnapshot", "ResetLog"} {
		t.Run(op, func(t *testing.T) {
			mem := &MemDevice{}
			s, err := Open(&failDevice{Device: mem, op: op, k: 1})
			if err != nil {
				t.Fatal(err)
			}
			s.RecordSeq(3)
			if err := s.Snapshot(); !errors.Is(err, errDisk) {
				t.Fatalf("Snapshot = %v, want %v", err, errDisk)
			}
			if !errors.Is(s.Err(), errDisk) {
				t.Fatalf("Err = %v after a failed snapshot, want %v", s.Err(), errDisk)
			}
			logged := len(mem.log)
			s.RecordSeq(4)
			if len(mem.log) != logged {
				t.Fatal("a record was written after the store latched an error")
			}
		})
	}
}

// TestAppendErrorIsLatched: the k-th failed log append is latched into Err,
// whichever record it carried, and the store writes nothing after it.
func TestAppendErrorIsLatched(t *testing.T) {
	records := []func(s *Store){
		func(s *Store) { s.RecordDelivered(id(1, 1), 9) },
		func(s *Store) { s.RecordSeq(2) },
		func(s *Store) { s.RecordSuspicion(1, 4, true) },
	}
	for k := 1; k <= len(records); k++ {
		mem := &MemDevice{}
		s, err := Open(&failDevice{Device: mem, op: "AppendLog", k: k})
		if err != nil {
			t.Fatal(err)
		}
		logged := 0
		for i, rec := range records {
			rec(s)
			if got := s.Err(); (i+1 >= k) != errors.Is(got, errDisk) {
				t.Fatalf("k=%d: Err = %v after record %d", k, got, i+1)
			}
			if i+1 == k {
				logged = len(mem.log)
			}
		}
		if len(mem.log) != logged {
			t.Fatalf("k=%d: %d bytes logged after the append that failed", k, len(mem.log)-logged)
		}
		if err := s.Snapshot(); !errors.Is(err, errDisk) {
			t.Fatalf("k=%d: Snapshot = %v after a latched append error, want %v", k, err, errDisk)
		}
	}
}
