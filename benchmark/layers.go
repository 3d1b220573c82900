//bbvet:wallclock tracing shims: they time calls into the program's layers with the wall clock and feed nothing back

package main

import (
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	"bbcast/internal/core"
	"bbcast/internal/sig"
	"bbcast/internal/wire"
)

// sigShim is the seam at sig.Scheme for the live nodes: it counts and times
// every signature and verification. Safe for concurrent use, as Scheme
// requires. (The single-threaded simulator rig has its own, span-recording
// shim.)
type sigShim struct {
	inner sig.Scheme

	signs, ok, bad   atomic.Uint64
	signNS, verifyNS atomic.Int64
}

var _ sig.Scheme = (*sigShim)(nil)

func (s *sigShim) Sign(id uint32, msg []byte) []byte {
	start := time.Now()
	tag := s.inner.Sign(id, msg)
	s.signNS.Add(int64(time.Since(start)))
	s.signs.Add(1)
	return tag
}

func (s *sigShim) Verify(id uint32, msg, tag []byte) bool {
	start := time.Now()
	ok := s.inner.Verify(id, msg, tag)
	s.verifyNS.Add(int64(time.Since(start)))
	if ok {
		s.ok.Add(1)
	} else {
		s.bad.Add(1)
	}
	return ok
}

func (s *sigShim) SigSize() int { return s.inner.SigSize() }
func (s *sigShim) Name() string { return s.inner.Name() }

// addCounters adds every field of src into *dst. The program's Stats types
// (core.Stats, radio.Stats, mac.Stats) are structs of uint64 counters;
// summing by reflection keeps the ledger in step when one gains a field, and
// a field of another type panics here rather than going uncounted.
func addCounters[T any](dst *T, src T) {
	dv, sv := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < dv.NumField(); i++ {
		dv.Field(i).SetUint(dv.Field(i).Uint() + sv.Field(i).Uint())
	}
}

// setCoreStats reports the protocol counters the ledger lists.
func setCoreStats(res *result, st core.Stats) {
	res.set("core.accepted", float64(st.Accepted))
	res.set("core.duplicates", float64(st.Duplicates))
	res.set("core.forwarded", float64(st.Forwarded))
	res.set("core.gossips_sent", float64(st.GossipsSent))
	res.set("core.requests_sent", float64(st.RequestsSent))
	res.set("core.finds_sent", float64(st.FindsSent))
	res.set("core.recovered_by_data", float64(st.RecoveredByData))
	res.set("core.rate_limited", float64(st.RateLimited))
	res.set("core.evictions", float64(st.Evictions))
	res.set("core.retries_sent", float64(st.RetriesSent))
	res.set("core.retries_abandoned", float64(st.RetriesAbandoned))
	res.set("core.adaptations", float64(st.Adaptations))
	res.set("core.rejoins", float64(st.Rejoins))
	res.set("core.sync_entries_applied", float64(st.SyncEntriesApplied))
}

// frameShareNames groups packet kinds the way the wire.* shares report them:
// recovery is request + find-missing + both sync kinds.
var frameShareNames = map[string]string{
	wire.KindData.String():         "data",
	wire.KindGossip.String():       "gossip",
	wire.KindOverlayState.String(): "overlay-state",
	wire.KindRequest.String():      "recovery",
	wire.KindFindMissing.String():  "recovery",
	wire.KindSyncReq.String():      "recovery",
	wire.KindSyncResp.String():     "recovery",
}

// splitLabel splits a registry series name into its base name and the value
// of its last label: `a_total{kind="data"}` → ("a_total", "data").
func splitLabel(name string) (base, label string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	base = name[:i]
	rest := strings.TrimSuffix(name[i:], `"}`)
	if j := strings.LastIndex(rest, `="`); j >= 0 {
		label = rest[j+2:]
	}
	return base, label
}
