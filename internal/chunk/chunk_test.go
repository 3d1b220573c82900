package chunk

import (
	"testing"

	"bbcast/internal/alloctest"
)

type record struct {
	id   int
	next *record
}

// TestSlotsAreFreshAndDistinct: across several arrays, every slot comes
// zeroed and none is handed out twice, so a write to one is never seen
// through another.
func TestSlotsAreFreshAndDistinct(t *testing.T) {
	var c Of[record]
	var got []*record
	for i := range 3*Len[record]() + 1 {
		r := c.New()
		if *r != (record{}) {
			t.Fatalf("slot %d not zeroed: %+v", i, *r)
		}
		r.id = i + 1
		got = append(got, r)
	}
	for i, r := range got {
		if r.id != i+1 {
			t.Fatalf("slot %d overwritten: id %d", i, r.id)
		}
	}
}

// TestChunkAllocationCeiling: a chunk allocates once per Len values, and a
// value larger than a chunk still gets a slot.
func TestChunkAllocationCeiling(t *testing.T) {
	var c Of[record]
	alloctest.AtMost(t, 1, func() {
		for range Len[record]() {
			c.New()
		}
	})
	type huge [2 * bytes]byte
	if Len[huge]() != 1 {
		t.Fatalf("Len of a %d-byte value = %d, want 1", 2*bytes, Len[huge]())
	}
}
