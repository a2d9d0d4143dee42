package campaign

import (
	"sync"

	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// Process-wide bootstrap-snapshot cache.
//
// A settled bootstrap snapshot depends only on (cluster.Config, workload
// kind): the capture always runs under the workload's canonical bootstrap
// seed, so two Runners with equal configs would build byte-identical
// snapshots — and before this cache, each Runner (and every benchmark that
// constructs a fresh Runner) re-simulated the same ~20 s bootstrap to get
// one. The cache keys on cluster.Config.Fingerprint() plus the workload kind
// and shares the resulting immutable Snapshot across all Runners in the
// process. Snapshots are cheap to retain (their store values alias the
// copy-on-write arrays) and safe to share (Fork is concurrent-safe and never
// mutates the snapshot), so entries live for the process lifetime;
// ClearSnapshotCache exists for tests and long-lived embedders.
//
// The cache is looked up once per Runner per workload (the Runner's own cell
// remembers the answer), so a mutex and a plain map are all it needs; the
// entry's once still guards the actual capture, so concurrent Runners racing
// on the same key build it exactly once.

var (
	snapCacheMu sync.Mutex
	snapCache   map[string]*snapshotEntry
)

// sharedSnapshotEntry returns (creating if needed) the process-wide cache
// cell for a key.
func sharedSnapshotEntry(key string) *snapshotEntry {
	return guardCell(&snapCacheMu, &snapCache, key)
}

// snapshotCacheKey derives the cache key for a per-workload bootstrap
// capture. cfg must already carry the canonical bootstrap seed for kind (the
// seed participates in the fingerprint, which keeps distinct golden-seed
// bases from colliding should they ever diverge per kind).
func snapshotCacheKey(cfg cluster.Config, kind workload.Kind) string {
	return string(kind) + "\x00" + cfg.Fingerprint()
}

// SnapshotCacheSize reports the number of cached bootstrap snapshots
// (diagnostics and tests).
func SnapshotCacheSize() int {
	snapCacheMu.Lock()
	defer snapCacheMu.Unlock()
	return len(snapCache)
}

// ClearSnapshotCache drops every cached bootstrap snapshot. Subsequent
// snapshot requests re-capture from scratch; captures already handed out
// remain valid (snapshots are immutable), so clearing can race active forks
// without invalidating them.
func ClearSnapshotCache() {
	snapCacheMu.Lock()
	defer snapCacheMu.Unlock()
	snapCache = nil
}
