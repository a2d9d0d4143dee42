package store

import (
	"bytes"
	"errors"

	"github.com/mutiny-sim/mutiny/internal/raft"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// Errors surfaced by the origin-aware access paths. Both mark the *endpoint*
// as unusable rather than the request as invalid, so failover-aware clients
// retry against another apiserver instead of reporting an application error.
var (
	// ErrReplicaDown reports that the store replica backing the serving
	// apiserver is lost (FaultStoreLoss).
	ErrReplicaDown = errors.New("store: replica down")
	// ErrNoQuorum reports that a write origin cannot reach a majority of
	// replicas (master partition minority side, or too many replicas lost).
	ErrNoQuorum = errors.New("store: no quorum reachable")
)

// Replicated is the cluster's data store: one or more store replicas, each
// the read/write/watch origin of the apiserver bound to it. A single control
// plane is a one-member group — the degenerate case of etcd's clustering, and
// exactly a lone Store: no raft group runs below two members, and a write is
// refused (or applied) by the one replica alone. An accepted write applies
// synchronously at every replica reachable from its origin — the simulation's
// stand-in for etcd's linearizable write (which commits through consensus
// before acknowledging, so no two gateways can disagree on write order) —
// while replicas unreachable at write time (partition minority) queue the op
// and catch up in commit order on heal. A raft group runs alongside as the
// liveness model: member loss and partitions drive its elections exactly as
// they would etcd's, and its membership/state-transfer machinery backs
// DropReplica/RestoreReplica.
//
// It exists for the §V-C1 ablation and the HA fault axes: injections on the
// apiserver→store channel happen *before* consensus, so all replicas agree on
// the corrupted value and replication provides no protection — while an
// at-rest corruption of a single replica is masked by quorum reads. Both
// behaviours are measured by the ablation benches.
//
// Apiservers use the *From/*Via variants, which carry their origin and report
// replica health as errors; List, Revision, SizeBytes and Len read replica 0.
type Replicated struct {
	loop     *sim.Loop
	replicas []*Store
	cluster  *raft.Cluster
	// down marks lost replicas (FaultStoreLoss). cut marks severed replica
	// links (FaultMasterPartition); it is queried per-pair, never iterated,
	// so determinism is unaffected.
	down []bool
	cut  map[[2]int]bool
	// missed queues, per replica, the committed ops the replica could not
	// apply while cut off, in global commit order; Heal drains them. Lost
	// replicas do not queue — RestoreReplica is a snapshot state transfer.
	missed [][]repOp
}

// repOp is one committed op, as a replica applies it live or on catch-up: a
// delete of key, or a put of value — PutVia's one owned copy of the written
// bytes, shared by every replica.
type repOp struct {
	key   string
	kind  spec.Kind
	value []byte
	del   bool
}

// applyOp applies one committed op at a replica other than its origin.
func applyOp(rep *Store, op repOp) {
	if op.del {
		rep.Delete(op.key)
		return
	}
	_, _ = rep.putOwned(op.key, op.kind, op.value)
}

// NewReplicated creates n store replicas, joined by a raft group when there
// are two or more. n must be at least 1; production HA control planes use 3.
func NewReplicated(loop *sim.Loop, n int, opts *Options) *Replicated {
	if n < 1 {
		n = 1
	}
	r := &Replicated{
		loop:   loop,
		down:   make([]bool, n),
		cut:    make(map[[2]int]bool),
		missed: make([][]repOp, n),
	}
	for i := 0; i < n; i++ {
		r.replicas = append(r.replicas, New(loop, opts))
	}
	r.startRaft()
	return r
}

// startRaft starts a fresh raft group on the loop. It carries no data (writes
// apply synchronously above); it models etcd's consensus liveness — election
// churn under partition and member loss — and its snapshot transfer backs
// replica restore. Starting it draws the members' first election timeouts from
// the loop's random source and schedules them, so a one-member store starts
// none: a single control plane draws no election timeouts.
func (r *Replicated) startRaft() {
	if len(r.replicas) < 2 {
		return
	}
	r.cluster = raft.NewCluster(r.loop, len(r.replicas), func(nodeID int, e raft.Entry) {})
}

// Reset empties every replica (see Store.Reset) and forgets lost members,
// cuts and catch-up queues. The raft group is left as it is — its timers went
// with the loop's events — because a restore starts a new one.
func (r *Replicated) Reset() {
	for i, rep := range r.replicas {
		rep.Reset()
		r.down[i] = false
		r.missed[i] = nil
	}
	clear(r.cut)
}

// apply commits one accepted op: synchronously at every replica reachable
// from the origin, queued for the rest. The loop executes events one at a
// time, so accepted writes form a single global order that every replica
// applies (live or on catch-up) identically.
func (r *Replicated) apply(origin int, op repOp) {
	for i, rep := range r.replicas {
		if i == origin || r.down[i] {
			continue
		}
		if !r.linkUp(origin, i) {
			r.missed[i] = append(r.missed[i], op)
			continue
		}
		applyOp(rep, op)
	}
}

// linkUp reports whether replicas a and b can talk (both directions).
func (r *Replicated) linkUp(a, b int) bool {
	if a == b {
		return true
	}
	return !r.cut[[2]int{a, b}] && !r.cut[[2]int{b, a}]
}

// quorumFrom reports whether origin can reach a majority of live replicas
// (itself included).
func (r *Replicated) quorumFrom(origin int) bool {
	if r.down[origin] {
		return false
	}
	n := 0
	for i := range r.replicas {
		if !r.down[i] && r.linkUp(origin, i) {
			n++
		}
	}
	return n > len(r.replicas)/2
}

// PutVia writes through the given origin replica and replicates the op. The
// write is acknowledged from the origin — by the time any component observes
// it, the (possibly corrupted) value is what consensus will agree on. A lost
// origin or a minority-side origin rejects the write.
func (r *Replicated) PutVia(origin int, key string, kind spec.Kind, value []byte) (int64, error) {
	if r.down[origin] {
		return 0, ErrReplicaDown
	}
	if !r.quorumFrom(origin) {
		return 0, ErrNoQuorum
	}
	rep := r.replicas[origin]
	if err := rep.admits(value); err != nil {
		return 0, err // refused before the copy: a rejected write allocates nothing
	}
	// One copy per accepted write, shared by every replica: the caller's
	// bytes typically live in a reused encode buffer, so the fan-out takes
	// an owned immutable array up front and installs that same array at the
	// origin, at every reachable replica, and in every catch-up queue —
	// instead of one defensive copy per replica.
	var owned []byte
	if len(value) > 0 {
		owned = append([]byte(nil), value...)
	}
	rev := rep.install(key, kind, owned)
	r.apply(origin, repOp{key: key, kind: kind, value: owned})
	return rev, nil
}

// DeleteVia removes through the given origin replica and replicates the
// tombstone.
func (r *Replicated) DeleteVia(origin int, key string) (bool, error) {
	if r.down[origin] {
		return false, ErrReplicaDown
	}
	if !r.quorumFrom(origin) {
		return false, ErrNoQuorum
	}
	ok := r.replicas[origin].Delete(key)
	if ok {
		r.apply(origin, repOp{key: key, del: true})
	}
	return ok, nil
}

// GetFrom reads from the given origin replica. A lost replica reports
// ErrReplicaDown instead of serving stale truth.
func (r *Replicated) GetFrom(origin int, key string) (KV, bool, error) {
	if r.down[origin] {
		return KV{}, false, ErrReplicaDown
	}
	kv, ok := r.replicas[origin].Get(key)
	return kv, ok, nil
}

// ListFrom lists from the given origin replica.
func (r *Replicated) ListFrom(origin int, prefix string) ([]KV, error) {
	if r.down[origin] {
		return nil, ErrReplicaDown
	}
	return r.replicas[origin].List(prefix), nil
}

// Subscribe makes fn the one subscriber to the i-th replica's local apply
// stream — the watch feed of the apiserver bound to it (see Store.Subscribe).
func (r *Replicated) Subscribe(i int, fn func(Event)) (cancel func()) {
	return r.replicas[i].Subscribe(fn)
}

// List reads from replica 0; empty when the replica is lost.
func (r *Replicated) List(prefix string) []KV {
	kvs, err := r.ListFrom(0, prefix)
	if err != nil {
		return nil
	}
	return kvs
}

// Revision returns replica 0's revision.
func (r *Replicated) Revision() int64 { return r.replicas[0].Revision() }

// RevisionAt returns the i-th replica's revision.
func (r *Replicated) RevisionAt(i int) int64 { return r.replicas[i].Revision() }

// MaxRevision returns the highest revision across live replicas — the
// reference point for the stale-read-window metric.
func (r *Replicated) MaxRevision() int64 {
	var max int64
	for i, rep := range r.replicas {
		if !r.down[i] && rep.Revision() > max {
			max = rep.Revision()
		}
	}
	return max
}

// Len returns replica 0's key count.
func (r *Replicated) Len() int { return r.replicas[0].Len() }

// SizeBytes returns replica 0's size.
func (r *Replicated) SizeBytes() int64 { return r.replicas[0].SizeBytes() }

// QuotaExceeded reports whether any live replica refused a write for space —
// replicas see the same op stream, so replica 0 stands for all when up.
func (r *Replicated) QuotaExceeded() bool {
	for i, rep := range r.replicas {
		if !r.down[i] && rep.QuotaExceeded() {
			return true
		}
	}
	return false
}

// Replica returns the i-th replica.
func (r *Replicated) Replica(i int) *Store { return r.replicas[i] }

// Replicas returns the replica count.
func (r *Replicated) Replicas() int { return len(r.replicas) }

// ReplicaDown reports whether the i-th replica is lost.
func (r *Replicated) ReplicaDown(i int) bool { return r.down[i] }

// DropReplica loses the i-th replica: its raft node crashes and every access
// through it fails until RestoreReplica. The data stays in place (a wiped
// store is restored by state transfer on recovery, not by log replay), and
// any catch-up queue is voided — the state transfer supersedes it.
func (r *Replicated) DropReplica(i int) {
	if r.down[i] {
		return
	}
	r.down[i] = true
	r.missed[i] = nil
	r.cluster.StopNode(i)
}

// RestoreReplica revives a lost replica by state transfer from the
// lowest-indexed live replica (an etcd snapshot install): store contents are
// copied and the raft node fast-forwards past the transferred state, so
// catch-up never double-applies.
func (r *Replicated) RestoreReplica(i int) {
	if !r.down[i] {
		return
	}
	donor := -1
	for j := range r.replicas {
		if j != i && !r.down[j] {
			donor = j
			break
		}
	}
	if donor >= 0 {
		r.replicas[i].restore(r.replicas[donor].snapshot())
		r.cluster.InstallSnapshot(i, donor)
	}
	r.down[i] = false
	r.missed[i] = nil
	r.cluster.RestartNode(i)
}

// Partition severs the links between the two replica groups until Heal. The
// raft transport is cut symmetrically, so a minority-side origin loses write
// quorum while its local reads keep serving (stale) truth.
func (r *Replicated) Partition(groupA, groupB []int) {
	for _, a := range groupA {
		for _, b := range groupB {
			r.cut[[2]int{a, b}] = true
			r.cut[[2]int{b, a}] = true
		}
	}
	r.cluster.Partition(groupA, groupB)
}

// Heal removes all replica-link cuts; replicas that missed writes while cut
// off apply them now, in the order the majority committed them.
func (r *Replicated) Heal() {
	clear(r.cut)
	r.cluster.Heal()
	for i, ops := range r.missed {
		if len(ops) == 0 {
			continue
		}
		r.missed[i] = nil
		for _, op := range ops {
			applyOp(r.replicas[i], op)
		}
	}
}

// QuorumGet reads key from every live replica and returns the value a
// majority of the full membership agrees on. A single corrupted-at-rest
// replica is outvoted, which is why the paper observes that "quorum reads
// mitigate corrupted values".
func (r *Replicated) QuorumGet(key string) (KV, bool) {
	type vote struct {
		kv    KV
		found bool
		count int
	}
	var votes []vote
	for i, rep := range r.replicas {
		if r.down[i] {
			continue
		}
		kv, ok := rep.Get(key)
		matched := false
		for i := range votes {
			if votes[i].found == ok && (!ok || bytes.Equal(votes[i].kv.Value, kv.Value)) {
				votes[i].count++
				matched = true
				break
			}
		}
		if !matched {
			votes = append(votes, vote{kv: kv, found: ok, count: 1})
		}
	}
	need := len(r.replicas)/2 + 1
	for _, v := range votes {
		if v.count >= need {
			return v.kv, v.found
		}
	}
	// No majority (diverging replicas, or too many lost): fall back to the
	// lowest-indexed live replica.
	for i, rep := range r.replicas {
		if !r.down[i] {
			return rep.Get(key)
		}
	}
	return KV{}, false
}

// Converged reports whether all replicas hold byte-identical values for key.
func (r *Replicated) Converged(key string) bool {
	ref, refOK := r.replicas[0].Get(key)
	for _, rep := range r.replicas[1:] {
		kv, ok := rep.Get(key)
		if ok != refOK || !bytes.Equal(kv.Value, ref.Value) {
			return false
		}
	}
	return true
}
