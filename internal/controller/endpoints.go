package controller

import (
	"errors"
	"sort"

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
	// byApp / podApp index pod keys by namespace and app-label value,
	// maintained from the pod events the controller already receives and
	// rebuilt at every resync (the lost-watch-event safety net). A service
	// whose selector names an app syncs against its own bucket instead of
	// scanning every pod in the namespace, so sync cost tracks the service's
	// backend set — not the 500 daemon pods a zoned cluster parks in
	// kube-system.
	byApp      map[string]map[string]bool // "ns/app" → pod keys
	podApp     map[string]string          // pod key → its current bucket
	keyScratch []string
}

func newEndpointsController(m *Manager) *endpointsController {
	c := &endpointsController{
		m:      m,
		byApp:  make(map[string]map[string]bool),
		podApp: make(map[string]string),
	}
	c.q = newQueue(m.loop, syncDelay, c.sync)
	return c
}

func (c *endpointsController) start() { c.q.start() }
func (c *endpointsController) stop()  { c.q.stop() }

func (c *endpointsController) reset() {
	c.q.reset()
	c.addrScratch = emptied(c.addrScratch)
	c.portScratch = c.portScratch[:0]
	c.keyScratch = emptied(c.keyScratch)
	clear(c.byApp)
	clear(c.podApp)
}

func (c *endpointsController) enqueueFor(ev apiserver.WatchEvent) {
	switch ev.Kind {
	case spec.KindService:
		c.q.add(objKey(ev.Object))
	case spec.KindPod:
		c.trackPod(ev)
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
	c.rebuildPodIndex()
	c.m.views.ForEach(spec.KindService, "", func(o spec.Object) bool {
		c.q.add(objKey(o))
		return true
	})
}

// appBucket names the index bucket for a pod's namespace and app label, or
// "" when the pod carries no app label (such pods are only reachable through
// the full-scan path).
func appBucket(ns, app string) string { return ns + "/" + app }

// trackPod keeps the app index in step with one pod event.
func (c *endpointsController) trackPod(ev apiserver.WatchEvent) {
	meta := ev.Object.Meta()
	key := meta.NamespacedName()
	bucket := ""
	if ev.Type != apiserver.Deleted {
		if app, ok := meta.Labels[spec.LabelApp]; ok {
			bucket = appBucket(meta.Namespace, app)
		}
	}
	prev, had := c.podApp[key]
	if had && prev == bucket {
		return
	}
	if had {
		if set := c.byApp[prev]; set != nil {
			delete(set, key)
			if len(set) == 0 {
				delete(c.byApp, prev)
			}
		}
		delete(c.podApp, key)
	}
	if bucket == "" {
		return
	}
	c.podApp[key] = bucket
	set := c.byApp[bucket]
	if set == nil {
		set = make(map[string]bool)
		c.byApp[bucket] = set
	}
	set[key] = true
}

// rebuildPodIndex re-converges the app index with the views — the resync
// repair after lost watch events, and the initial build (the first resync
// runs right after the views prime). The steady state is a pure verification
// pass: every indexed pod still matches, so nothing is allocated — at 500
// nodes a from-scratch rebuild every resync was one of the two largest
// allocation sources in the whole experiment window.
func (c *endpointsController) rebuildPodIndex() {
	indexed := 0
	consistent := true
	c.m.views.ForEach(spec.KindPod, "", func(po spec.Object) bool {
		meta := po.Meta()
		app, ok := meta.Labels[spec.LabelApp]
		if !ok {
			return true
		}
		indexed++
		if !bucketMatches(c.podApp[meta.NamespacedName()], meta.Namespace, app) {
			consistent = false
			return false
		}
		return true
	})
	if consistent && indexed == len(c.podApp) {
		return
	}
	clear(c.byApp)
	clear(c.podApp)
	// Pods arrive in namespace/name order, so a workload's pods arrive
	// together: the previous pod's bucket name is usually this one's too,
	// and reusing it saves a string per pod (500 daemon pods, one bucket).
	var bucket string
	c.m.views.ForEach(spec.KindPod, "", func(po spec.Object) bool {
		meta := po.Meta()
		app, ok := meta.Labels[spec.LabelApp]
		if !ok {
			return true
		}
		key := meta.NamespacedName()
		if !bucketMatches(bucket, meta.Namespace, app) {
			bucket = appBucket(meta.Namespace, app)
		}
		c.podApp[key] = bucket
		set := c.byApp[bucket]
		if set == nil {
			set = make(map[string]bool)
			c.byApp[bucket] = set
		}
		set[key] = true
		return true
	})
}

// bucketMatches reports whether bucket equals appBucket(ns, app) without
// building the concatenated string.
func bucketMatches(bucket, ns, app string) bool {
	return len(bucket) == len(ns)+1+len(app) &&
		bucket[:len(ns)] == ns && bucket[len(ns)] == '/' && bucket[len(ns)+1:] == app
}

func (c *endpointsController) sync(key string) {
	ns, name := splitKey(key)
	obj, ok := c.m.views.GetByKey(spec.KindService, key)
	if !ok {
		// Service gone: its Endpoints are garbage-collected via owner refs.
		return
	}
	svc := obj.(*spec.Service)

	sel := spec.LabelSelector{MatchLabels: svc.Spec.Selector}
	addrs := c.addrScratch[:0]
	switch app, hasApp := svc.Spec.Selector[spec.LabelApp]; {
	case sel.Empty():
		// Selector-less service: endpoints are managed manually.
	case hasApp:
		// The selector names an app: sync against that bucket of the pod
		// index. Keys are sorted so the address order matches the full scan's
		// key-ordered iteration exactly — the two paths are interchangeable.
		keys := c.keyScratch[:0]
		for k := range c.byApp[appBucket(ns, app)] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		c.keyScratch = keys
		for _, pk := range keys {
			if obj, ok := c.m.views.GetByKey(spec.KindPod, pk); ok {
				addrs = c.appendAddr(addrs, sel, obj.(*spec.Pod))
			}
		}
	default:
		// Informer-view scan: the endpoint table is rebuilt from scratch;
		// pods are never mutated here.
		c.m.views.ForEach(spec.KindPod, ns, func(po spec.Object) bool {
			addrs = c.appendAddr(addrs, sel, po.(*spec.Pod))
			return true
		})
	}
	c.addrScratch = addrs
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
// backend matching the selector — the shared predicate of the indexed and
// full-scan sync paths.
func (c *endpointsController) appendAddr(addrs []spec.EndpointAddress, sel spec.LabelSelector, pod *spec.Pod) []spec.EndpointAddress {
	if !pod.Active() || !pod.Status.Ready || pod.Status.PodIP == "" {
		return addrs
	}
	if !sel.Matches(pod.Metadata.Labels) {
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
