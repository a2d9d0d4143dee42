package store

import (
	"sort"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// This file implements store snapshot/restore: the storage half of the
// bootstrapped-cluster fork path. A Snapshot is pure immutable data — no
// loop, watcher, or timer references — so one snapshot can seed any number
// of forked clusters concurrently.
//
// Value bytes are shared, not copied: the store's copy-on-write discipline
// (see Put) makes every stored array immutable, so capture and restore alias
// the same arrays across the source cluster, the snapshot, and every fork.
// A fork that overwrites a key installs a fresh array and the shared one is
// simply no longer referenced there — forks never observe each other's
// writes, and snapshot capture/restore is O(items), not O(bytes).

// ItemSnapshot is one stored key with its full revision metadata.
type ItemSnapshot struct {
	Key       string
	Kind      spec.Kind
	Value     []byte
	CreateRev int64
	ModRev    int64
}

// StoreSnapshot captures one replica's contents and counters.
type StoreSnapshot struct {
	Items []ItemSnapshot // sorted by key
	Rev   int64
	Size  int64
}

// Snapshot captures a whole Replicated store: one StoreSnapshot per replica
// (replicas can diverge transiently while a partitioned one catches up, so
// each is captured independently).
type Snapshot struct {
	Replicas []StoreSnapshot
}

// Clone returns a snapshot whose value bytes live in freshly allocated,
// per-replica contiguous arenas. Content is identical — a restore from the
// clone is byte-equivalent to a restore from the original — but nothing
// aliases the source snapshot's arrays. Its only caller is
// cluster.Snapshot.WorkerView, which stays compiled only for the benchmark's
// cluster.worker_view_ms metric.
func (s *Snapshot) Clone() *Snapshot {
	if s == nil {
		return nil
	}
	out := &Snapshot{Replicas: make([]StoreSnapshot, len(s.Replicas))}
	for i := range s.Replicas {
		out.Replicas[i] = s.Replicas[i].clone()
	}
	return out
}

func (s StoreSnapshot) clone() StoreSnapshot {
	total := 0
	for i := range s.Items {
		total += len(s.Items[i].Value)
	}
	// One arena per replica: the capacity is exact, so the appends below
	// never reallocate, and the three-index reslice caps each item at its
	// own bytes so a later append through one value can never bleed into
	// the next item's.
	arena := make([]byte, 0, total)
	items := make([]ItemSnapshot, len(s.Items))
	for i, it := range s.Items {
		start := len(arena)
		arena = append(arena, it.Value...)
		it.Value = arena[start:len(arena):len(arena)]
		items[i] = it
	}
	return StoreSnapshot{Items: items, Rev: s.Rev, Size: s.Size}
}

// Snapshot captures every replica.
func (r *Replicated) Snapshot() *Snapshot {
	snap := &Snapshot{Replicas: make([]StoreSnapshot, len(r.replicas))}
	for i, rep := range r.replicas {
		snap.Replicas[i] = rep.snapshot()
	}
	return snap
}

// Restore loads a snapshot into an empty store of the same shape (same
// replica count): freshly constructed, or Reset on a loop that was reset too.
// It must run before any component writes: items are installed directly,
// without watch notifications, exactly like a store process reopening its
// database file. A replicated store starts a new raft group as its first step
// — the group of a fresh store started on whatever the loop was before it was
// positioned for the restore, and that of a Reset one is gone.
func (r *Replicated) Restore(snap *Snapshot) {
	if snap == nil {
		return
	}
	r.startRaft()
	for i, rep := range r.replicas {
		if i < len(snap.Replicas) {
			rep.restore(snap.Replicas[i])
		}
	}
}

func (s *Store) snapshot() StoreSnapshot {
	out := StoreSnapshot{Rev: s.rev, Size: s.size, Items: make([]ItemSnapshot, 0, len(s.items))}
	for key, it := range s.items {
		out.Items = append(out.Items, ItemSnapshot{
			Key:       key,
			Kind:      it.kind,
			Value:     it.value, // immutable; shared with the live store
			CreateRev: it.createRev,
			ModRev:    it.modRev,
		})
	}
	sort.Slice(out.Items, func(i, j int) bool { return out.Items[i].Key < out.Items[j].Key })
	return out
}

// restore replaces the store's contents with the snapshot's. The items live
// in one array (s.restored), reused when a Reset store is restored again.
func (s *Store) restore(snap StoreSnapshot) {
	clear(s.items)
	if cap(s.restored) < len(snap.Items) {
		// First restore (or a larger one): size the map with the array.
		s.restored = make([]item, len(snap.Items))
		s.items = make(map[string]*item, len(snap.Items))
	}
	s.restored = s.restored[:len(snap.Items)]
	for i, it := range snap.Items {
		s.restored[i] = item{
			kind:      it.Kind,
			value:     it.Value, // immutable; shared across every fork
			createRev: it.CreateRev,
			modRev:    it.ModRev,
		}
		s.items[it.Key] = &s.restored[i]
	}
	s.sorted = snap.Items
	s.rev = snap.Rev
	s.size = snap.Size
}
