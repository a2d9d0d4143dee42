package apiserver

import "maps"

// This file implements control-plane snapshot/restore for the
// bootstrapped-cluster fork path. A control plane's durable state outside the
// store is small and is captured whole, in one value: each server's admission
// counters (UIDs and service cluster IPs must keep advancing in a fork, or new
// objects would collide with bootstrap-era ones), and, once for all servers,
// the audit counters, the admission chain's violation count and the decode
// cache that makes a restore's re-list cheap. The watch caches are not copied
// — each server rebuilds its own from the restored store, the same re-list a
// real apiserver performs on restart.

// ControlPlaneSnapshot is a control plane's resumable state. It is immutable:
// Restore only reads it, so one snapshot is safely restored into many control
// planes at once, from many goroutines.
type ControlPlaneSnapshot struct {
	// counters holds each server's admission counters, in server order: their
	// residues differ.
	counters   []counters
	audit      *Audit
	violations int64
	// decoded is a copy of the decode cache that nothing writes to. Its
	// entries are sealed objects paired with the stored bytes entries' arrays
	// they decode, so sharing them across every restore is exactly as safe as
	// sharing those arrays, which a store snapshot does — and it spares a
	// restore's watch-cache rebuild their codec.Unmarshal, as the store
	// snapshot's object entries spare it everyone else's.
	decoded decodeCache
}

// counters are one server's admission counters.
type counters struct{ uid, ip int64 }

// Snapshot captures the control plane's resumable state.
func (cp *ControlPlane) Snapshot() *ControlPlaneSnapshot {
	snap := &ControlPlaneSnapshot{
		counters: make([]counters, len(cp.Servers)),
		audit:    cp.audit.Snapshot(),
		decoded:  maps.Clone(cp.decoded),
	}
	if cp.admission != nil {
		snap.violations = cp.admission.violationsAdmitted
	}
	for i, s := range cp.Servers {
		snap.counters[i] = counters{uid: s.uidCounter, ip: s.ipCounter}
	}
	return snap
}

// Restore resumes snap in cp, a control plane of the snapshot's replica count
// that is freshly built or Reset, over a store that has already been restored.
// In this order: the decode cache, the audit trail and the violation count are
// installed; each server resumes its counters and silently rebuilds its watch
// cache from its store replica through the restored decode cache (an
// undecodable value is counted on top of the restored audit); then one
// seed-derived UID skew is drawn from the loop and added to every server's UID
// counter. No events are dispatched: components prime their own views when
// they start, exactly as they do against a live control plane they reconnect
// to (netsim's Prime, the scheduler's run-time listing, the controllers'
// resync). Fault state is not part of a snapshot: snapshots are taken of
// settled, fault-free clusters, and each fork arms its own injector.
//
// The skew: replayed runs never reach the window with exactly the same UID
// counter (bootstrap length varies per seed), and everything keyed on UIDs —
// pod service-time offsets, eviction order — must keep that run-to-run
// variability, or it would be identical across all forks. Every server skews
// by the same amount, so their residues stay disjoint.
func (cp *ControlPlane) Restore(snap *ControlPlaneSnapshot) {
	if len(snap.counters) != len(cp.Servers) {
		panic("apiserver: Restore into a control plane of another replica count than the snapshot's")
	}
	clear(cp.decoded)
	maps.Copy(cp.decoded, snap.decoded)
	cp.audit.restore(snap.audit)
	if cp.admission != nil {
		cp.admission.violationsAdmitted = snap.violations
	}
	for i, s := range cp.Servers {
		s.uidCounter, s.ipCounter = snap.counters[i].uid, snap.counters[i].ip
		s.rebuildCache(false)
	}
	if skew := cp.loop.Rand().Int63n(1000); skew > 0 {
		for _, s := range cp.Servers {
			s.uidCounter += skew
		}
	}
}

// Snapshot returns a copy of the trail that nothing writes to.
func (a *Audit) Snapshot() *Audit {
	snap := *a
	snap.errByIdentity = maps.Clone(a.errByIdentity)
	return &snap
}

// restore replaces the trail's contents with snap's, keeping its own map.
func (a *Audit) restore(snap *Audit) {
	errs := a.errByIdentity
	clear(errs)
	maps.Copy(errs, snap.errByIdentity)
	*a = *snap
	a.errByIdentity = errs
}
