package core

import "unsafe"

// chunkBytes is about how much memory one chunk array takes.
const chunkBytes = 1024

// chunk hands out zeroed slots carved from arrays of about chunkBytes, so a
// table that gains one entry per message allocates once per array, not once
// per entry. A slot is never handed out twice, so a pointer to one is as
// unique as a separate allocation. The garbage collector frees an array once
// none of its slots is referenced: one live slot keeps its whole array, and
// with it whatever the array's dead slots still point to, which is why
// msgStore.remove clears the entries it drops.
type chunk[T any] struct {
	free []T
}

// new returns a fresh zeroed slot.
func (c *chunk[T]) new() *T {
	if len(c.free) == 0 {
		var zero T
		c.free = make([]T, max(1, chunkBytes/int(unsafe.Sizeof(zero))))
	}
	slot := &c.free[0]
	c.free = c.free[1:]
	return slot
}
