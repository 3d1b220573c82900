// Package core is a boundedstate fixture for a drifted caps table: the
// registered reqSeen field was deleted without updating RegisteredCaps, and
// Config lost the MaxMissing cap the missing table is registered against.
package core // want `caps table is stale: registered field Protocol\.reqSeen \(cap MaxReqSeen\) no longer exists`

// Config lost MaxMissing in this fixture.
type Config struct {
	MaxStore     int
	MaxNeighbors int
}

type msgStore struct{ byID map[int]int }

// Protocol lost its reqSeen table in this fixture.
type Protocol struct {
	store     msgStore
	missing   map[int]int // want `registered against Config\.MaxMissing, but that cap field does not exist`
	neighbors map[int]int
	linkQual  map[int]int
}
