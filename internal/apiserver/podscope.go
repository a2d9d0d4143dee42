package apiserver

import (
	"slices"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// PodScope is the standing interest of one pod watcher that acts on a pod
// event only if the pod is bound to its node or is one it already runs — a
// kubelet. Registered through Client.WatchPods, the watcher is delivered
// exactly the pod events whose (delivered, post-watch-hook) object names Node
// in spec.nodeName or carries a claimed UID, in registration order among all
// the event's receivers. The holder claims a UID when it starts tracking the
// pod and releases it when it stops; both may be called at any time, also from
// inside a delivery and while the scope is not registered (claims made before
// registration are indexed by it, and follow the watch across a failover).
//
// A scope belongs to one registration at a time. Its state is a small slice,
// not a map: a node runs a handful of pods.
type PodScope struct {
	// Node is the node name the holder answers for. Fixed before the scope is
	// first registered.
	Node string

	claims []string // claimed pod UIDs, in no particular order
	// srv and w are the live registration (nil without one): where a claim
	// made now has to be indexed.
	srv *Server
	w   *watcher
}

// Claim adds uid to the pods the holder runs. Claiming a claimed UID is a
// no-op, so the claims are a set.
func (p *PodScope) Claim(uid string) {
	if p.claimed(uid) {
		return
	}
	p.claims = append(p.claims, uid)
	if p.srv != nil {
		p.srv.byUID.insert(uid, p.w)
	}
}

// Release removes uid from the pods the holder runs; a no-op if it is not
// claimed.
func (p *PodScope) Release(uid string) {
	i := slices.Index(p.claims, uid)
	if i < 0 {
		return
	}
	last := len(p.claims) - 1
	p.claims[i] = p.claims[last]
	p.claims[last] = ""
	p.claims = p.claims[:last]
	if p.srv != nil {
		p.srv.byUID.remove(uid, p.w)
	}
}

// Claims returns the claimed UIDs in no particular order (diagnostics and
// tests). The slice is the scope's own: read it, do not keep it.
func (p *PodScope) Claims() []string { return p.claims }

// Reset empties the scope, keeping its memory: no claims, no registration.
// Like the components' Reset it cancels nothing — the server the scope was
// registered with is being reset too and forgets its side by itself.
func (p *PodScope) Reset() {
	clear(p.claims)
	p.claims = p.claims[:0]
	p.srv, p.w = nil, nil
}

func (p *PodScope) claimed(uid string) bool { return slices.Contains(p.claims, uid) }

// wants reports whether the holder can act on an event for pod.
func (p *PodScope) wants(pod *spec.Pod) bool {
	return pod.Spec.NodeName == p.Node || p.claimed(pod.Metadata.UID)
}

// posIndex maps a node name or pod UID to the scoped watchers interested in
// it, ascending by sequence number.
type posIndex map[string]posList

// posList is one posIndex entry. Nearly every node has one kubelet and nearly
// every pod one claimant, so the first watcher is held by value: filling the
// indexes of a 500-node cluster allocates nothing per entry. Once a second
// watcher arrives, more holds them all and one is unused.
type posList struct {
	one  *watcher
	more []*watcher
}

func (m posIndex) insert(key string, w *watcher) {
	p, ok := m[key]
	switch {
	case !ok:
		p.one = w
	case p.more == nil:
		if p.one == w {
			return
		}
		p.more = []*watcher{p.one, w}
		if w.seq < p.one.seq {
			p.more[0], p.more[1] = w, p.one
		}
		p.one = nil
	default:
		i, found := slices.BinarySearchFunc(p.more, w.seq, bySeq)
		if found {
			return
		}
		p.more = slices.Insert(p.more, i, w)
	}
	m[key] = p
}

func (m posIndex) remove(key string, w *watcher) {
	p, ok := m[key]
	if !ok {
		return
	}
	if p.more == nil {
		if p.one == w {
			delete(m, key)
		}
		return
	}
	p.more = without(p.more, w)
	if len(p.more) == 0 {
		delete(m, key)
		return
	}
	m[key] = p
}

// list returns the watchers under key, ascending; one backs the result when
// there is a single watcher, and must outlive it.
func (m posIndex) list(key string, one *[1]*watcher) []*watcher {
	p, ok := m[key]
	if !ok {
		return nil
	}
	return p.all(one)
}

// all returns the entry's watchers, ascending, backed by one when there is a
// single watcher.
func (p posList) all(one *[1]*watcher) []*watcher {
	if p.more != nil {
		return p.more
	}
	one[0] = p.one
	return one[:]
}
