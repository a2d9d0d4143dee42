package apiserver

import (
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// ControlPlane is the apiserver tier of a cluster: one Server per store
// replica, all sharing one audit trail, one decode cache and one admission
// chain, and the Endpoints set over them that every off-plane component's
// client comes from. A single control plane is the one-replica case of the
// same shape, so the §V-C1 ablation compares replica counts, not code paths.
//
// Server i binds to store replica i and mints UIDs and service IPs in the
// residue class i mod N, N the replica count: creates routed through
// different servers after a failover can never collide.
type ControlPlane struct {
	Servers   []*Server
	Endpoints *Endpoints

	loop      *sim.Loop
	audit     *Audit
	decoded   decodeCache
	admission *AdmissionChain
}

// NewControlPlane builds one server per replica of st, each started on its
// store watch. chain is the admission webhook chain every server evaluates,
// nil for none.
func NewControlPlane(loop *sim.Loop, st *store.Replicated, opts *Options, chain *AdmissionChain) *ControlPlane {
	cp := &ControlPlane{
		Servers:   make([]*Server, st.Replicas()),
		loop:      loop,
		audit:     NewAudit(),
		decoded:   make(decodeCache),
		admission: chain,
	}
	for i := range cp.Servers {
		cp.Servers[i] = newServer(cp, st, i, opts)
	}
	cp.Endpoints = NewEndpoints(loop, cp.Servers...)
	return cp
}

// Reset returns the control plane to the state NewControlPlane left it in,
// keeping the memory of its tables: every server reset, the decode cache and
// the audit trail empty, the admission chain without faults or violations.
// The Endpoints' clients are their holders' to forget (Endpoints.Reset). The
// store and the loop must have been Reset first.
func (cp *ControlPlane) Reset() {
	clear(cp.decoded)
	cp.audit.reset()
	if cp.admission != nil {
		cp.admission.Reset()
	}
	for _, s := range cp.Servers {
		s.reset()
	}
}
