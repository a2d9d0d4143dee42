package controller

import (
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// garbageCollector deletes dependents whose controller owner no longer
// exists — matching by kind, name AND UID, so a corrupted ownerReference UID
// makes a perfectly healthy object look orphaned and get deleted (one of the
// dependency-field failure modes behind finding F2). It also hosts pod
// garbage collection: pods bound to nodes that do not exist are removed
// after a minimum age, which is what cleans up a pod whose nodeName was
// corrupted to a non-existent node (the paper's ~50 s timing-failure
// example).
type garbageCollector struct {
	m      *Manager
	ticker sim.Timer
	// firstMissing records when a pod's node was first seen missing.
	firstMissing map[string]time.Duration
	// nodeNames is the node view's name set during one pod-GC pass, refilled
	// on every tick; it keeps its memory between ticks and holds nothing
	// after a reset.
	nodeNames map[string]bool
}

func newGarbageCollector(m *Manager) *garbageCollector {
	return &garbageCollector{m: m, firstMissing: make(map[string]time.Duration), nodeNames: make(map[string]bool)}
}

func (c *garbageCollector) start() {
	clear(c.firstMissing)
	c.ticker = c.m.loop.Every(gcInterval, c.collect)
}

func (c *garbageCollector) stop() {
	c.ticker.Stop()
}

func (c *garbageCollector) reset() {
	c.ticker = sim.Timer{}
	clear(c.firstMissing)
	clear(c.nodeNames)
}

func (c *garbageCollector) enqueueFor(apiserver.WatchEvent) {}

func (c *garbageCollector) resync() {}

// ownedKinds are the kinds subject to owner-reference collection.
var ownedKinds = []spec.Kind{spec.KindPod, spec.KindReplicaSet, spec.KindEndpoints}

func (c *garbageCollector) collect() {
	if !c.m.running {
		return
	}
	c.collectOrphans()
	c.collectPodsOnMissingNodes()
}

func (c *garbageCollector) collectOrphans() {
	for _, kind := range ownedKinds {
		// Informer-view scans: collection only inspects owner refs and
		// deletes by name.
		c.m.views.ForEach(kind, "", func(obj spec.Object) bool {
			meta := obj.Meta()
			ref := meta.ControllerOf()
			if ref == nil {
				return true
			}
			if c.ownerAlive(meta.Namespace, ref) {
				return true
			}
			_ = c.m.client.Delete(kind, meta.Namespace, meta.Name)
			return true
		})
	}
}

func (c *garbageCollector) ownerAlive(namespace string, ref *spec.OwnerReference) bool {
	kind := spec.Kind(ref.Kind)
	if spec.New(kind) == nil {
		return false // unknown owner kind: treat as missing
	}
	ns := namespace
	if kind.ClusterScoped() {
		ns = ""
	}
	var obj spec.Object
	if c.m.views.Tracks(kind) {
		var ok bool
		obj, ok = c.m.views.Get(kind, ns, ref.Name)
		if !ok {
			return false
		}
	} else {
		// Owner kinds outside the informer set (e.g. a corrupted ref naming
		// a Namespace) resolve against the server.
		var err error
		obj, err = c.m.client.Get(kind, ns, ref.Name)
		if err != nil {
			return false
		}
	}
	// UID must match: a same-named successor object does not resurrect
	// ownership (and a corrupted ref UID orphans the dependent).
	return obj.Meta().UID == ref.UID
}

func (c *garbageCollector) collectPodsOnMissingNodes() {
	now := c.m.loop.Now()
	nodeNames := c.nodeNames
	clear(nodeNames)
	c.m.views.ForEach(spec.KindNode, "", func(no spec.Object) bool {
		nodeNames[no.Meta().Name] = true
		return true
	})
	c.m.views.ForEach(spec.KindPod, "", func(po spec.Object) bool {
		pod := po.(*spec.Pod)
		if pod.Spec.NodeName == "" || nodeNames[pod.Spec.NodeName] {
			if len(c.firstMissing) > 0 { // nearly every tick: nothing to forget
				delete(c.firstMissing, pod.Metadata.NamespacedName())
			}
			return true
		}
		key := pod.Metadata.NamespacedName()
		first, seen := c.firstMissing[key]
		if !seen {
			c.firstMissing[key] = now
			return true
		}
		if now-first >= podGCMinAge {
			_ = c.m.client.Delete(spec.KindPod, pod.Metadata.Namespace, pod.Metadata.Name)
			delete(c.firstMissing, key)
		}
		return true
	})
}
