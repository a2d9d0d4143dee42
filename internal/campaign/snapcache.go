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
// snapshots. The cache keys on the config value itself (a plain comparable
// struct, see cluster's TestClusterConfigIsAPlainValue) plus the kind and
// shares the resulting immutable Snapshot across all Runners in the process.
// Snapshots are cheap to retain (their store values alias the copy-on-write
// arrays) and safe to share (Fork is concurrent-safe and never mutates the
// snapshot), so entries live for the process lifetime; ClearSnapshotCache
// exists for tests and long-lived embedders.
//
// The key is the config as given, not as the cluster defaults it: Workers 0
// and Workers 4 build the same cluster but key separately, which costs one
// extra bootstrap if one process mixes them. Every experiment looks its
// snapshot up here (one lock, one map lookup, no allocation), so after
// ClearSnapshotCache a live Runner re-captures on its next experiment. The
// entry's once guards the capture, so concurrent Runners racing on the same
// key build it exactly once.

// snapKey is a cache key: the template with the bootstrap seed stamped.
type snapKey struct {
	cfg  cluster.Config
	kind workload.Kind
}

var (
	snapCacheMu sync.Mutex
	snapCache   map[snapKey]*snapshotEntry
)

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
