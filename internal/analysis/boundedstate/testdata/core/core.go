// Package core is a boundedstate fixture type-checked as
// bbcast/internal/core: registered tables, annotated side tables, and the
// two failure modes (an unbounded map field, an annotation naming a cap that
// does not exist).
package core

// Config carries the caps the registered tables are bounded by.
type Config struct {
	MaxStore     int
	MaxMissing   int
	MaxNeighbors int
	MaxReqSeen   int
}

// maxSide bounds the annotated side table below.
const maxSide = 4

// msgStore mirrors the real message store: the table registered against
// Config.MaxStore lives in its own struct.
type msgStore struct {
	byID map[int]int // registered: capped by Config.MaxStore
}

// Protocol mirrors the real protocol state tables.
type Protocol struct {
	store     msgStore
	missing   map[int]int
	neighbors map[int]int
	reqSeen   map[int]int
	linkQual  map[int]int // registered: shares Config.MaxNeighbors with neighbors

	//bbvet:bounded-by maxSide fixture: insertion refuses growth past the cap
	side map[int]int

	rogue map[int]int // want `map field Protocol\.rogue is unbounded state`

	//bbvet:bounded-by MaxGhost // want `//bbvet:bounded-by MaxGhost: no such Config field or package-level constant`
	ghost map[int]int

	workers []int // non-map fields are not attacker-growable tables
}

// aux shows the rule applies to every struct in the package, not only
// Protocol, and that nested map types count.
type aux struct {
	byPeer map[int]map[int]int // want `map field aux\.byPeer is unbounded state`

	//bbvet:bounded-by MaxStore shares the store cap
	index map[int]int
}
