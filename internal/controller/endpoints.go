package controller

import (
	"errors"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// endpointsController maintains each Service's Endpoints object: the list of
// ready pod addresses behind the service VIP. Corruption of a service
// selector, a pod label, a pod IP, or a port surfaces here as missing,
// stale, or wrong endpoints — the Net failure family (service reachable
// resources exist but are incorrectly networked).
type endpointsController struct {
	keyed
	// addrScratch / portScratch back the rebuilt endpoint table, reused
	// across syncs. A write hands its object over to the server, which keeps
	// it, so the desired object gets copies of the two, made only when the
	// table changed.
	addrScratch []spec.EndpointAddress
	portScratch []int64
	// selScratch holds the selector of the service being synced as a flat
	// list; empty between syncs (its order is the selector map's, random).
	selScratch []spec.LabelPair
}

func newEndpointsController(m *Manager) *endpointsController {
	c := &endpointsController{}
	c.keyed = newKeyed(m, spec.KindService, c.sync)
	return c
}

func (c *endpointsController) reset() {
	c.q.reset()
	c.addrScratch = emptied(c.addrScratch)
	c.portScratch = c.portScratch[:0]
}

func (c *endpointsController) enqueueFor(ev apiserver.WatchEvent) {
	switch ev.Kind {
	case spec.KindService:
		c.q.add(objKey(ev.Object))
	case spec.KindPod:
		// Only services selecting this pod (or that could have) are affected.
		meta := ev.Object.Meta()
		c.m.views.ForEach(spec.KindService, meta.Namespace, func(so spec.Object) bool {
			svc := so.(*spec.Service)
			sel := spec.LabelSelector{MatchLabels: svc.Spec.Selector}
			if sel.Matches(meta.Labels) || ev.Type == apiserver.Deleted {
				c.q.add(objKey(svc))
			}
			return true
		})
	case spec.KindEndpoints:
		c.q.add(objKey(ev.Object)) // repair manual/corrupted edits
	}
}

func (c *endpointsController) sync(key string) {
	ns, name := spec.SplitNamespacedName(key)
	obj, ok := c.m.views.GetByKey(spec.KindService, key)
	if !ok {
		// Service gone: its Endpoints are garbage-collected via owner refs.
		return
	}
	svc := obj.(*spec.Service)

	sel := spec.LabelSelector{MatchLabels: svc.Spec.Selector}.AppendPairs(c.selScratch)
	addrs := c.addrScratch[:0]
	if len(sel) > 0 { // a selector-less service's endpoints are managed manually
		// The endpoint table is rebuilt from the namespace's serving pods,
		// in key order; pods are never mutated here.
		verdict := labelVerdict{sel: sel}
		c.m.views.ForEachServing(ns, func(pod *spec.Pod) bool {
			addrs = appendAddr(addrs, &verdict, pod)
			return true
		})
	}
	c.addrScratch = addrs
	c.selScratch = emptied(sel)
	ports := c.portScratch[:0]
	for _, p := range svc.Spec.Ports {
		ports = append(ports, p.TargetPort)
	}
	c.portScratch = ports

	// Compare against the current table before building anything: most pod
	// events leave the endpoints unchanged, and the no-op path must not
	// allocate a throwaway desired object per sync.
	curObj, curOK := c.m.views.GetByKey(spec.KindEndpoints, key)
	if curOK && endpointsUpToDate(curObj.(*spec.Endpoints), addrs, ports) {
		return
	}

	desired := &spec.Endpoints{
		Metadata: spec.ObjectMeta{
			Name: name, Namespace: ns,
			Labels:          cloneLabels(svc.Metadata.Labels),
			OwnerReferences: []spec.OwnerReference{controllerRef(spec.KindService, name, svc.Metadata.UID)},
		},
	}
	if len(addrs) > 0 {
		desired.Subsets = []spec.EndpointSubset{{
			Addresses: append([]spec.EndpointAddress(nil), addrs...),
			Ports:     append([]int64(nil), ports...),
		}}
	}

	if !curOK {
		// A stale view at worst turns this into a failed Create
		// (ErrAlreadyExists), repaired on the next event or resync.
		_ = c.m.client.Create(desired)
		return
	}
	cur := curObj.(*spec.Endpoints)
	desired.Metadata.ResourceVersion = cur.Metadata.ResourceVersion
	desired.Metadata.UID = cur.Metadata.UID
	if err := c.m.client.Update(desired); errors.Is(err, apiserver.ErrConflict) {
		c.q.addAfter(key, conflictRetryDelay)
	}
}

// appendAddr appends the pod's endpoint address iff it is a ready, addressed
// backend matching the selector, whose verdict is the current walk's.
func appendAddr(addrs []spec.EndpointAddress, verdict *labelVerdict, pod *spec.Pod) []spec.EndpointAddress {
	if !pod.Active() || !pod.Status.Ready || pod.Status.PodIP == "" {
		return addrs
	}
	if !verdict.matches(pod.Metadata.Labels) {
		return addrs
	}
	return append(addrs, spec.EndpointAddress{
		IP:       pod.Status.PodIP,
		NodeName: pod.Spec.NodeName,
		TargetRef: spec.TargetRef{
			Kind: string(spec.KindPod), Name: pod.Metadata.Name, UID: pod.Metadata.UID,
		},
	})
}

// endpointsUpToDate reports whether cur already holds exactly the one-subset
// table (addrs, ports) — or the empty table when addrs is empty — without
// materializing the desired object.
func endpointsUpToDate(cur *spec.Endpoints, addrs []spec.EndpointAddress, ports []int64) bool {
	if len(addrs) == 0 {
		return len(cur.Subsets) == 0
	}
	if len(cur.Subsets) != 1 {
		return false
	}
	s := cur.Subsets[0]
	if len(s.Addresses) != len(addrs) || len(s.Ports) != len(ports) {
		return false
	}
	for i := range addrs {
		if s.Addresses[i] != addrs[i] {
			return false
		}
	}
	for i := range ports {
		if s.Ports[i] != ports[i] {
			return false
		}
	}
	return true
}
