// Package cow is the one concurrent table under the parallel campaign engine:
// a bounded, insert-only map published copy-on-write.
//
// Campaign workers run isolated simulations but share a small, endlessly
// recurring vocabulary — decoded strings, storage keys, label maps — that
// stabilizes within the first experiment, so the steady state is 100 % hits.
// A Map publishes an immutable Go map through an atomic pointer: a hit is one
// atomic load plus one map lookup, with no lock to bounce between cores.
// A miss takes the mutex, re-checks, copies the map, inserts and republishes;
// that cost is paid once per new key and is bounded by the caller's limit,
// beyond which values pass through unpublished (graceful degradation, no
// eviction churn, never unbounded memory).
package cow

import (
	"sync"
	"sync/atomic"
)

// A Map is one copy-on-write table. The zero value is empty and ready to use.
type Map[K comparable, V any] struct {
	cur atomic.Pointer[map[K]V]
	mu  sync.Mutex
}

// Read returns the published map, which the caller must not modify. Handing
// back the map itself (not a lookup method) lets call sites keep the
// allocation-free m[string(b)] form.
func (m *Map[K, V]) Read() map[K]V {
	if p := m.cur.Load(); p != nil {
		return *p
	}
	return nil
}

// Insert returns the value published under k, publishing v first when k is
// new (a concurrent insert may have won the race, so the result is the
// canonical value, not necessarily v). A map already holding limit entries
// is left unchanged and v is handed back.
func (m *Map[K, V]) Insert(k K, v V, limit int) V {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.Read()
	if old, ok := cur[k]; ok {
		return old
	}
	if len(cur) >= limit {
		return v
	}
	next := make(map[K]V, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[k] = v
	m.cur.Store(&next)
	return v
}

// Shards is the width of a Sharded table. It comfortably exceeds GOMAXPROCS
// on any campaign runner, so concurrent inserts rarely meet on one mutex, and
// it divides the copy cost of an insert by the same factor.
const Shards = 64

// Sharded is a table split over Shards independent Maps by a hash of the key
// (see Hash). The zero value is empty and ready to use.
type Sharded[K comparable, V any] [Shards]Map[K, V]

// Shard returns the Map that owns keys hashing to h.
func (s *Sharded[K, V]) Shard(h uint32) *Map[K, V] { return &s[h%Shards] }

// Hash is FNV-1a over the bytes of s; it only picks a shard.
func Hash[S ~string | ~[]byte](s S) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}
