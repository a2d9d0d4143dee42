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
	m *Manager
	q *queue
	// addrScratch / portScratch back the rebuilt endpoint table, reused
	// across syncs: the desired object is serialized (or deep-copied) by the
	// client write path and never retained, so the backing arrays are free
	// again once sync returns.
	addrScratch []spec.EndpointAddress
	portScratch []int64
	// selScratch holds the selector of the service being synced as a flat
	// list; empty between syncs (its order is the selector map's, random).
	selScratch []spec.LabelPair
}

func newEndpointsController(m *Manager) *endpointsController {
	c := &endpointsController{m: m}
	c.q = newQueue(m.loop, syncDelay, c.sync)
	return c
}

func (c *endpointsController) start() { c.q.start() }
func (c *endpointsController) stop()  { c.q.stop() }

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

func (c *endpointsController) resync() {
	c.m.views.ForEach(spec.KindService, "", func(o spec.Object) bool {
		c.q.add(objKey(o))
		return true
	})
}

func (c *endpointsController) sync(key string) {
	ns, name := splitKey(key)
	obj, ok := c.m.views.GetByKey(spec.KindService, key)
	if !ok {
		// Service gone: its Endpoints are garbage-collected via owner refs.
		return
	}
	svc := obj.(*spec.Service)

	sel := spec.LabelSelector{MatchLabels: svc.Spec.Selector}.AppendPairs(c.selScratch)
	addrs := c.addrScratch[:0]
	if len(sel) > 0 { // a selector-less service's endpoints are managed manually
		// Informer-view scan: the endpoint table is rebuilt from scratch;
		// pods are never mutated here.
		c.m.views.ForEach(spec.KindPod, ns, func(po spec.Object) bool {
			addrs = appendAddr(addrs, sel, po.(*spec.Pod))
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
			Labels: cloneLabels(svc.Metadata.Labels),
			OwnerReferences: []spec.OwnerReference{{
				Kind: string(spec.KindService), Name: name,
				UID: svc.Metadata.UID, Controller: true,
			}},
		},
	}
	if len(addrs) > 0 {
		desired.Subsets = []spec.EndpointSubset{{Addresses: addrs, Ports: ports}}
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
// backend matching the selector.
func appendAddr(addrs []spec.EndpointAddress, sel []spec.LabelPair, pod *spec.Pod) []spec.EndpointAddress {
	if !pod.Active() || !pod.Status.Ready || pod.Status.PodIP == "" {
		return addrs
	}
	if !spec.PairsMatch(sel, pod.Metadata.Labels) {
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
