package cluster

import (
	"slices"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/kubelet"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// This file implements bootstrapped-cluster snapshots: capture a settled
// cluster once, then resume it at the settled instant as often as needed —
// the campaign fast path that removes the ~20 s simulated bootstrap from
// every injection experiment.
//
// A Snapshot holds only immutable data: store contents (every replica of a
// replicated backend), each API server's admission counters, the control
// plane's audit trail, admission violation count and decode cache (so a
// restore re-lists without decoding), the controller manager's child-name
// counter, and each kubelet's runtime state (image cache, IP allocator,
// per-pod pipeline position). Everything else — watch registrations,
// periodic timers, controller caches, the scheduler's pending/assumed sets,
// the data-plane view — is deliberately NOT captured: Restore re-derives it
// by re-listing the restored store, the same recovery path every real
// component walks after a restart. That keeps the snapshot free of closures
// (simulation events cannot be copied between loops) and makes one snapshot
// safely restorable from many goroutines at once.
//
// Resuming is one operation, Restore, on an empty cluster of the snapshot's
// shape. Fork builds that cluster (New) and restores it; a caller that runs
// many experiments builds it once and empties it again after each
// (Cluster.Rewind), so what is rebuilt per experiment is state — table
// contents, registrations, timers — never the component graph. Rewound and
// forked clusters are equal field for field (TestRewindLeavesNoTrace) and
// run every experiment identically (campaign.TestRewindMatchesFork).
//
// Seed split: the snapshot's bootstrap runs under one canonical seed; each
// Restore(c, seed) re-seeds the cluster's RNG per experiment while resuming
// the snapshot's virtual clock and event-budget accounting. See the package
// documentation for the equivalence contract this implies.
type Snapshot struct {
	cfg      Config
	now      time.Duration
	executed int64

	store *store.Snapshot
	// servers holds one snapshot per control-plane replica: their admission
	// counters differ (strided residues).
	servers []apiserver.Snapshot
	// What every replica shares is captured once, whatever the replica count:
	// the audit trail, the admission chain's violation count (zero without a
	// chain) and the decode cache, which is never written, so views share it.
	audit      apiserver.AuditSnapshot
	violations int64
	decoded    *apiserver.DecodeCache
	nameSeq    int64
	kubelets   map[string]kubelet.Snapshot
}

// settleMargin is simulated after capture-point checks before the state is
// read: it drains in-flight watch deliveries (store and dispatch latencies
// are ~1 ms) so the capture sees a quiescent system, not one with committed-
// but-undelivered events that a fork would silently drop.
const settleMargin = 100 * time.Millisecond

// forkDither is the upper bound of the random phase offset each fork runs
// before it is handed to the caller. Forking restarts every periodic timer
// at the same instant, so without it all forks of one snapshot would share
// exactly the same component phases (scheduler ticks, controller sync and
// resync, heartbeats) relative to the measurement window — a degenerate
// alignment a full replay never exhibits, which would collapse the variance
// of golden-run baselines and inflate every z-score. The dither is drawn
// from the fork's own RNG, so it is deterministic per seed; one second
// covers the short control-loop periods that dominate window-visible
// timing (scheduler 100 ms, controller sync 50 ms).
const forkDither = time.Second

// Snapshot captures the cluster's resumable state. Call it on a started,
// settled cluster (after AwaitSettled and any scenario setup); the capture
// advances the clock by a small settle margin first so no watch delivery is
// in flight. The result is immutable and safe for concurrent Fork calls.
func (c *Cluster) Snapshot() *Snapshot {
	c.Loop.RunUntil(c.Loop.Now() + settleMargin)
	snap := &Snapshot{
		cfg:      c.cfg,
		now:      c.Loop.Now(),
		executed: c.Loop.EventsExecuted(),
		store:    c.Backend.Snapshot(),
		audit:    c.Server.Audit().Snapshot(),
		decoded:  c.Server.DecodeCache().Snapshot(),
		nameSeq:  c.Manager.NameSeq(),
		kubelets: make(map[string]kubelet.Snapshot, len(c.Kubelets)),
	}
	if c.admission != nil {
		snap.violations = c.admission.ViolationsAdmitted()
	}
	for _, srv := range c.Servers {
		snap.servers = append(snap.servers, srv.Snapshot())
	}
	for _, name := range c.nodeOrder {
		snap.kubelets[name] = c.Kubelets[name].Snapshot()
	}
	return snap
}

// WorkerView returns a copy of the snapshot that shares no byte arrays or
// map/slice structure with the original: the store snapshot's value bytes
// move into fresh per-replica arenas (store.Snapshot.Clone) and the audit
// trail gets private maps (apiserver.AuditSnapshot.Clone). Forking from the
// view is byte-equivalent to forking from the original. The decode cache and
// kubelet pod records stay shared: both are immutable, and only read; the
// cache's entries decode the original's arrays, so a view's fork misses on
// every key and decodes its own.
//
// No product code calls this any more: campaign workers fork from the shared
// snapshot directly (per-worker views measured no gain at two cores). It
// stays compiled only because bench/trace.go times it for the
// cluster.worker_view_ms layer metric; once that metric is dropped this and
// the two Clones go.
func (s *Snapshot) WorkerView() *Snapshot {
	view := &Snapshot{
		cfg:        s.cfg,
		now:        s.now,
		executed:   s.executed,
		store:      s.store.Clone(),
		servers:    slices.Clone(s.servers),
		audit:      s.audit.Clone(),
		violations: s.violations,
		decoded:    s.decoded,
		nameSeq:    s.nameSeq,
		kubelets:   make(map[string]kubelet.Snapshot, len(s.kubelets)),
	}
	for name, ks := range s.kubelets {
		view.kubelets[name] = ks
	}
	return view
}

// outgrowth is how many times its snapshot's size a cluster's store or audit
// trail may reach before the cluster is not worth rewinding (see Outgrown).
const outgrowth = 4

// Outgrown reports whether c, resumed from s, ended its experiment with
// tables far larger than the snapshot fills: an uncontrolled replication ran
// away in it (1,400-2,250 pods against a few dozen objects), or thousands of
// requests failed. Go's maps and slices keep their peak size when emptied, so
// a rewound c would carry that memory, idle, into every later experiment; the
// caller drops it instead and forks afresh — once per runaway, 0.7 % of a
// campaign's experiments.
func (s *Snapshot) Outgrown(c *Cluster) bool {
	return c.Backend.Len() > outgrowth*len(s.store.Replicas[0].Items) ||
		len(c.Server.Audit().Entries) > outgrowth*(len(s.audit.Entries)+256)
}

// Fork builds a started cluster that resumes from the snapshot: same store
// contents, same virtual clock, same settled workloads — but all randomness
// from here on is drawn from a fresh RNG seeded with seed. The fork is
// already running (components started, leases adopted, data plane primed);
// drive its Loop directly, there is no bootstrap to await.
//
// Fork only allocates: an empty cluster of the snapshot's shape, which Restore
// then fills. A caller that runs experiment after experiment keeps the
// cluster instead, Rewinds it when an experiment ends and Restores it for the
// next — the same Restore, so the two cannot drift apart.
func (s *Snapshot) Fork(seed int64) *Cluster {
	cfg := s.cfg
	cfg.Seed = seed
	c := New(cfg)
	s.Restore(c, seed)
	return c
}

// Restore resumes the snapshot in c, an empty cluster of the snapshot's shape:
// fresh from New (as in Fork) or rewound (Cluster.Rewind) after an earlier
// experiment. Every table is refilled in place, so on a rewound cluster the
// restore allocates next to nothing; what it does is the same either way, and
// its side effects are part of the contract, in this order: the raft group
// draws its election timeouts first, kubelets adopt their pods through
// (access-noted) Gets, watches register in component order (which is
// same-tick delivery order), timers are scheduled in start order (which
// breaks ties), and the UID-skew draw precedes the dither draw.
func (s *Snapshot) Restore(c *Cluster, seed int64) {
	if len(c.Servers) != len(s.servers) || len(c.nodeOrder) != len(s.kubelets) {
		panic("cluster: Restore into a cluster of another shape than the snapshot's")
	}
	c.cfg.Seed = seed
	loop := c.Loop
	// An empty cluster's loop is not quite empty: New started the raft group
	// of a replicated store on it.
	loop.Reset()
	loop.Seed(seed)
	loop.Resume(s.now, s.executed)

	c.Backend.Restore(s.store)
	// Restore what the replicas share once, then rebuild each replica's watch
	// cache from the restored store, through the restored decode cache, and
	// resume its admission counters before any component starts issuing
	// requests. Undecodable values a rebuild meets are counted in the restored
	// audit trail.
	c.Server.DecodeCache().Restore(s.decoded)
	c.Server.Audit().Restore(s.audit)
	if c.admission != nil {
		c.admission.ResumeViolations(s.violations)
	}
	for i, srv := range c.Servers {
		srv.RestoreSnapshot(s.servers[i])
	}
	// Seed-derived UID skew: replayed runs never reach the window with
	// exactly the same UID counter (bootstrap length varies per seed), and
	// per-pod behavior keyed on UIDs must keep that run-to-run variability.
	// Every replica skews by the same amount, preserving the disjoint
	// per-replica residues the admission stride established.
	skew := loop.Rand().Int63n(1000)
	for _, srv := range c.Servers {
		srv.SkewUIDCounter(skew)
	}
	c.Manager.ResumeNameSeq(s.nameSeq)

	// Kubelets adopt their pods before starting, so the pod watch treats
	// them as already-owned state rather than new arrivals.
	for _, name := range c.nodeOrder {
		if ks, ok := s.kubelets[name]; ok {
			c.Kubelets[name].RestoreSnapshot(ks)
		}
	}

	c.started = true
	for _, name := range c.nodeOrder {
		c.Kubelets[name].Start()
	}
	// The data plane re-lists the restored control-plane state (netsim's
	// watches only carry changes), then the control loops start: their
	// electors find their own identities on the restored leases and resume
	// leadership on the first tick, and the controllers and scheduler prime
	// their caches from the store exactly as after a component restart.
	c.Net.Prime()
	c.startControlLoops(0)
	// Run a seed-random phase dither so this fork's component timers
	// de-phase from every other fork's (see forkDither).
	loop.RunUntil(loop.Now() + time.Duration(loop.Rand().Int63n(int64(forkDither))))
}
