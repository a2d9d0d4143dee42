package apiserver

import "maps"

// This file implements server snapshot/restore for the bootstrapped-cluster
// fork path. The server's own durable state outside the store is tiny: the
// admission counters (UIDs and service cluster IPs must keep advancing in a
// fork, or new objects would collide with bootstrap-era ones). The watch cache
// is not copied — it is rebuilt from the restored backend, the same re-list a
// real apiserver performs on restart. What every replica shares — the decode
// cache that makes that re-list cheap, the audit trail, the admission chain —
// is captured once per control plane, not per server (DecodeCache.Snapshot,
// Audit.Snapshot, AdmissionChain.ViolationsAdmitted).

// Snapshot captures the server state that must survive a fork.
type Snapshot struct {
	UIDCounter int64
	IPCounter  int64
}

// Snapshot returns a copy of the cache that nothing writes to: immutable data,
// safe to restore into many forks concurrently. Its entries are sealed objects
// paired with the store arrays they decode, so sharing them across every fork
// is exactly as safe as sharing those arrays, which a store snapshot does —
// and it lets a fork's watch-cache rebuild skip nearly every codec.Unmarshal.
func (c *DecodeCache) Snapshot() *DecodeCache {
	return &DecodeCache{entries: maps.Clone(c.entries)}
}

// Restore replaces the cache's contents with the snapshot's, before the
// servers sharing the cache rebuild their watch caches through it.
func (c *DecodeCache) Restore(snap *DecodeCache) {
	clear(c.entries)
	maps.Copy(c.entries, snap.entries)
}

// AuditSnapshot is a deep copy of the audit trail's counters and entries.
type AuditSnapshot struct {
	Entries          []AuditEntry
	OKByIdentity     map[string]int
	ErrByIdentity    map[string]int
	Undecodable      int
	DroppedWrites    int
	TamperedOK       int
	TamperedErrored  int
	ChecksumFailures int
}

// Snapshot captures the server's fork-relevant state.
func (s *Server) Snapshot() Snapshot {
	return Snapshot{UIDCounter: s.uidCounter, IPCounter: s.ipCounter}
}

// Clone returns a snapshot with private map and slice structure (the entries
// and counters). Its only caller is cluster.Snapshot.WorkerView, which stays
// compiled only for the benchmark's cluster.worker_view_ms metric.
func (a AuditSnapshot) Clone() AuditSnapshot {
	a.Entries = append([]AuditEntry(nil), a.Entries...)
	a.OKByIdentity = copyCounts(a.OKByIdentity)
	a.ErrByIdentity = copyCounts(a.ErrByIdentity)
	return a
}

// RestoreSnapshot installs snapshot state into a server that is freshly built
// or Reset, and whose backend, decode cache and audit trail have already been
// restored, then silently rebuilds the watch cache from it — into the tables
// the server already has. An undecodable value the rebuild meets is counted on
// top of the restored audit trail.
// No events are dispatched: components prime their own views when they
// start, exactly as they do against a live control plane they reconnect to
// (netsim's Prime, the scheduler's run-time listing, the controllers'
// resync).
func (s *Server) RestoreSnapshot(snap Snapshot) {
	s.uidCounter = snap.UIDCounter
	s.ipCounter = snap.IPCounter
	s.rebuildCache(false)
}

// SkewUIDCounter advances the UID counter by n. Forked clusters apply a
// seed-derived skew so objects created after the fork get fork-specific
// UIDs, mirroring the run-to-run UID variability of full replays (bootstrap
// length differs slightly per seed, so replayed windows never start from
// the same counter; everything keyed on UIDs — pod service-time offsets,
// eviction order — would otherwise be identical across all forks).
func (s *Server) SkewUIDCounter(n int64) {
	if n > 0 {
		s.uidCounter += n
	}
}

// Snapshot returns a deep copy of the trail: immutable data, safe to restore
// into many forks concurrently.
func (a *Audit) Snapshot() AuditSnapshot {
	return AuditSnapshot{
		Entries:          append([]AuditEntry(nil), a.Entries...),
		OKByIdentity:     copyCounts(a.okByIdentity),
		ErrByIdentity:    copyCounts(a.errByIdentity),
		Undecodable:      a.undecodable,
		DroppedWrites:    a.droppedWrites,
		TamperedOK:       a.tamperedOK,
		TamperedErrored:  a.tamperedErrored,
		ChecksumFailures: a.checksumFailures,
	}
}

// Restore replaces the trail's contents with the snapshot's, before the
// servers sharing the trail rebuild their watch caches.
func (a *Audit) Restore(snap AuditSnapshot) {
	a.Entries = append(a.Entries[:0], snap.Entries...)
	clear(a.okByIdentity)
	maps.Copy(a.okByIdentity, snap.OKByIdentity)
	clear(a.errByIdentity)
	maps.Copy(a.errByIdentity, snap.ErrByIdentity)
	a.undecodable = snap.Undecodable
	a.droppedWrites = snap.DroppedWrites
	a.tamperedOK = snap.TamperedOK
	a.tamperedErrored = snap.TamperedErrored
	a.checksumFailures = snap.ChecksumFailures
}

func copyCounts(in map[string]int) map[string]int {
	out := make(map[string]int, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}
