package controller

import (
	"errors"
	"sort"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// replicaSetController keeps the number of pods matching each ReplicaSet's
// selector equal to the desired replica count.
//
// Ownership is tracked through two redundant mechanisms that must agree:
// the pod's labels must match the ReplicaSet's selector, and the pod must
// carry a controller owner reference with the ReplicaSet's UID. When
// corruption makes them disagree the controller does what the real one does:
// it releases pods whose labels no longer match (orphaning them — the pod
// keeps running, unaccounted for) and creates replacements. If the
// *template*'s labels are corrupted so that new pods never match the
// selector, every sync creates more pods: the paper's uncontrolled
// replication (§V-C1), bounded only by node and store capacity.
type replicaSetController struct {
	keyed
	// ownedScratch is the owned-pod buffer reused across syncs (the
	// collected set never outlives the sync call).
	ownedScratch []*spec.Pod
	// selScratch holds the selector of the ReplicaSet being synced as a flat
	// list; empty between syncs (its order is the selector map's, random).
	selScratch []spec.LabelPair
}

func newReplicaSetController(m *Manager) *replicaSetController {
	c := &replicaSetController{}
	c.keyed = newKeyed(m, spec.KindReplicaSet, c.sync)
	return c
}

func (c *replicaSetController) reset() {
	c.q.reset()
	c.ownedScratch = emptied(c.ownedScratch)
}

func (c *replicaSetController) enqueueFor(ev apiserver.WatchEvent) {
	switch ev.Kind {
	case spec.KindReplicaSet:
		c.q.add(objKey(ev.Object))
	case spec.KindPod:
		// Route to the owning ReplicaSet if any; otherwise re-sync all
		// ReplicaSets in the namespace so adoption can happen.
		meta := ev.Object.Meta()
		if ref := meta.ControllerOf(); ref != nil && ref.Kind == string(spec.KindReplicaSet) {
			c.q.add(meta.Namespace + "/" + ref.Name)
			return
		}
		// Orphan pod: only ReplicaSets whose selector matches could adopt it
		// (informer-view scan: only enqueues keys).
		c.m.views.ForEach(spec.KindReplicaSet, meta.Namespace, func(ro spec.Object) bool {
			rs := ro.(*spec.ReplicaSet)
			if rs.Spec.Selector.Matches(meta.Labels) {
				c.q.add(objKey(rs))
			}
			return true
		})
	}
}

func (c *replicaSetController) sync(key string) {
	ns, _ := splitKey(key)
	obj, ok := c.m.views.GetByKey(spec.KindReplicaSet, key)
	if !ok {
		return
	}
	rs := obj.(*spec.ReplicaSet)

	// Informer-view scan: owned pods are only inspected here; adoption and
	// release mutate a private clone (see adoptPod / Manager.releasePod).
	owned := c.ownedScratch[:0]
	sel := rs.Spec.Selector.AppendPairs(c.selScratch)
	c.m.views.ForEach(spec.KindPod, ns, func(po spec.Object) bool {
		pod := po.(*spec.Pod)
		if !pod.Active() {
			return true
		}
		ref := pod.Metadata.ControllerOf()
		if ref != nil && ref.UID != rs.Metadata.UID {
			return true // another controller's pod: not ours to count, release or adopt
		}
		matches := spec.PairsMatch(sel, pod.Metadata.Labels)
		switch {
		case ref != nil:
			if matches {
				owned = append(owned, pod)
			} else {
				// Labels diverged from the selector: release the pod. It
				// keeps running as an orphan — silent over-provisioning.
				c.m.releasePod(pod)
			}
		case matches: // an orphan
			if c.adoptPod(rs, pod) {
				owned = append(owned, pod)
			}
		}
		return true
	})
	c.ownedScratch = owned
	c.selScratch = emptied(sel)

	diff := int(rs.Spec.Replicas) - len(owned)
	switch {
	case diff > 0:
		n := diff
		if n > burstReplicas {
			n = burstReplicas
		}
		for i := 0; i < n; i++ {
			_ = c.m.client.Create(c.m.childPod(spec.KindReplicaSet, &rs.Metadata, &rs.Spec.Template))
		}
		if diff > n {
			c.q.addAfter(key, syncDelay)
		}
	case diff < 0:
		victims := podsToDelete(owned, -diff)
		for _, pod := range victims {
			_ = c.m.client.Delete(spec.KindPod, ns, pod.Metadata.Name)
		}
	}

	c.updateStatus(rs, owned)
}

func (c *replicaSetController) adoptPod(rs *spec.ReplicaSet, pod *spec.Pod) bool {
	pod = spec.CloneForWriteAs(pod) // the argument may be a sealed cache reference
	pod.Metadata.OwnerReferences = append(pod.Metadata.OwnerReferences,
		controllerRef(spec.KindReplicaSet, rs.Metadata.Name, rs.Metadata.UID))
	return c.m.client.Update(pod) == nil
}

func (c *replicaSetController) updateStatus(rs *spec.ReplicaSet, owned []*spec.Pod) {
	ready := int64(0)
	for _, pod := range owned {
		if pod.Status.Ready {
			ready++
		}
	}
	if rs.Status.Replicas == int64(len(owned)) && rs.Status.ReadyReplicas == ready {
		return
	}
	rs = spec.CloneForStatusAs(rs) // the argument is a sealed cache reference
	rs.Status.Replicas = int64(len(owned))
	rs.Status.ReadyReplicas = ready
	if err := c.m.client.UpdateStatus(rs); errors.Is(err, apiserver.ErrConflict) {
		c.q.addAfter(objKey(rs), conflictRetryDelay)
	}
}

// podsToDelete prefers not-ready, then unscheduled, then youngest pods —
// the real controller's deletion cost ordering, which keeps scale-downs
// from disturbing serving pods.
func podsToDelete(pods []*spec.Pod, n int) []*spec.Pod {
	ranked := append([]*spec.Pod(nil), pods...)
	sort.SliceStable(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		if a.Status.Ready != b.Status.Ready {
			return !a.Status.Ready
		}
		if (a.Spec.NodeName == "") != (b.Spec.NodeName == "") {
			return a.Spec.NodeName == ""
		}
		return a.Metadata.CreatedMillis > b.Metadata.CreatedMillis
	})
	if n > len(ranked) {
		n = len(ranked)
	}
	return ranked[:n]
}

func cloneLabels(in map[string]string) map[string]string {
	out := make(map[string]string, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

func clonePodSpec(in *spec.PodSpec) *spec.PodSpec {
	pod := spec.Pod{Spec: *in}
	cloned := pod.Clone().(*spec.Pod)
	return &cloned.Spec
}
