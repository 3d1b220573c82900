// Package chunk hands out records carved from arrays of about 1 KiB, so code
// that makes one record per message or per datagram allocates once per array,
// not once per record.
package chunk

import "unsafe"

// bytes is about how much memory one chunk array takes.
const bytes = 1024

// Len is how many values of T one chunk array holds: about 1 KiB of them, and
// at least one.
func Len[T any]() int {
	var zero T
	return max(1, bytes/int(unsafe.Sizeof(zero)))
}

// Of hands out zeroed slots carved from arrays of Len[T](). A slot is never
// handed out twice, so a pointer to one is as unique as a separate
// allocation, and nothing writes a slot after handing it out. The garbage
// collector frees an array once none of its slots is referenced: one live
// slot keeps its whole array, and with it whatever the array's dead slots
// still point to, so a table that drops records it took from a chunk clears
// them. The zero value is ready to use.
type Of[T any] struct {
	free []T
}

// New returns a fresh zeroed slot.
func (c *Of[T]) New() *T {
	if len(c.free) == 0 {
		c.free = make([]T, Len[T]())
	}
	slot := &c.free[0]
	c.free = c.free[1:]
	return slot
}
