package core

import (
	"sync"

	"flexio/internal/datatype"
	"flexio/internal/realm"
)

// Flatten/intersection memoization.
//
// In steady state an application issues the same collective shape over and
// over: identical filetype, displacement, transfer size, and (with PFRs)
// identical realms. The piece lists produced by the client- and
// aggregator-side intersections are pure functions of that shape, so the
// engine caches them and, on a hit, skips rebuilding cursors, decoding
// request messages, and re-walking the intersections.
//
// The cost model must not notice: every communication step still happens
// (requests are sent and received, only their decoding is skipped), and
// the virtual-time charges the skipped computation would have issued are
// replayed from a recorded list, in the original call order, so clocks,
// phase times, and pair counters are bit-identical to the miss path. Only
// host CPU time is saved.
//
// Invalidation is by key equality, not by eviction hooks:
//
//   - the client key pins the filetype (by datatype identity — types are
//     immutable), view displacement, transfer size, collective buffer
//     size, aggregator count, and a content signature of the realm set;
//   - the aggregator key replaces the filetype with a hash of the raw
//     request messages received this call, so any client changing its
//     access pattern misses automatically;
//   - realm reassignment (Even -> Aligned -> PFR, or a PFR anchored on a
//     different region) changes the realm signature and misses.
type clientKey struct {
	rank    int
	ft      datatype.Type // identity: types are immutable and comparable
	disp    int64
	dataLen int64
	cb      int64
	naggs   int
	sig     uint64 // realmSignature of the realm set
	// pre discriminates node-local pre-aggregation shapes: 0 when the rank
	// exchanges its own access (pre-aggregation off, or a leader with no
	// members — identical piece lists either way), 1 for a member whose
	// effective access is empty, and a hash of the members' request
	// encodings for a leader, whose merged pieces depend on every
	// co-resident's access, not just the fields above.
	pre uint64
}

type clientEntry struct {
	enc     [][]byte       // per-aggregator request encodings
	pieces  []*roundPieces // per-aggregator piece lists, immutable
	charges []int64        // ChargePairs replay for the intersection section
}

type aggKey struct {
	rank  int
	req   uint64 // hash of all received request messages
	cb    int64
	naggs int
	sig   uint64
}

type aggEntry struct {
	pieces  []*roundPieces // per-client piece lists, immutable
	rounds  int
	charges []int64 // [0] is the decoding charge, rest per client
}

// memoLimit bounds each cache map; overflowing clears the map outright
// (steady-state workloads hold a handful of shapes, so LRU bookkeeping
// isn't worth carrying).
const memoLimit = 128

type memoCache struct {
	mu      sync.Mutex
	clients map[clientKey]*clientEntry
	aggs    map[aggKey]*aggEntry
}

func (m *memoCache) getClient(k clientKey) *clientEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clients[k]
}

func (m *memoCache) putClient(k clientKey, e *clientEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.clients == nil {
		m.clients = make(map[clientKey]*clientEntry)
	}
	if len(m.clients) >= memoLimit {
		clear(m.clients)
	}
	m.clients[k] = e
}

func (m *memoCache) getAgg(k aggKey) *aggEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.aggs[k]
}

func (m *memoCache) putAgg(k aggKey, e *aggEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.aggs == nil {
		m.aggs = make(map[aggKey]*aggEntry)
	}
	if len(m.aggs) >= memoLimit {
		clear(m.aggs)
	}
	m.aggs[k] = e
}

// FNV-1a, inlined so hashing allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvInt64(h uint64, v int64) uint64 {
	x := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// realmSignature hashes the realm set by content: displacement, count, and
// the pattern's extent and flattened segments. Assigners build fresh
// pattern objects every call, so identity would never hit; content is
// stable whenever the assignment is. Realm patterns are small (one segment
// for contiguous partitions), so this is O(realms) per call.
func realmSignature(realms []realm.Realm) uint64 {
	h := uint64(fnvOffset)
	h = fnvInt64(h, int64(len(realms)))
	for _, r := range realms {
		h = fnvInt64(h, r.Disp)
		h = fnvInt64(h, r.Count)
		if r.Pattern == nil {
			h = fnvInt64(h, -1)
			continue
		}
		h = fnvInt64(h, r.Pattern.Extent())
		for _, s := range r.Pattern.Flatten() {
			h = fnvInt64(h, s.Off)
			h = fnvInt64(h, s.Len)
		}
	}
	return h
}
