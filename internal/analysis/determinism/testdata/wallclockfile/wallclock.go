//bbvet:wallclock fixture: this whole file is wall-clock by nature

// Package transport is a determinism fixture type-checked as
// bbcast/internal/transport: inside internal/ (so the wall-clock ban would
// apply) but allowlisted by the file-header annotation, which has no say
// over map iteration.
package transport

import (
	"math/rand"
	"time"
)

func uptime(start time.Time) time.Duration {
	return time.Since(start) // exempt: file-level //bbvet:wallclock
}

func jitter() time.Duration {
	return time.Duration(rand.Int63n(1000)) // exempt with the rest of the file
}

func emits(m map[int]int, sink func(int)) {
	for k := range m { // want `range over map has order-dependent effects \(calls sink`
		sink(k)
	}
}
