package controller

import (
	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// daemonSetController ensures one pod per eligible node for each DaemonSet.
// DaemonSet pods are bound directly to their node (they do not pass through
// the scheduler) and typically run at system-critical priority — which is
// why corrupting the labels that associate pods with a DaemonSet is the
// paper's flagship failure: the controller can no longer identify its pods,
// spawns replacements forever, and the high-priority replicas evict every
// application pod while the store fills up (§V-C1 example).
type daemonSetController struct {
	keyed
	// byNodeScratch / nodeSeenScratch are the per-sync grouping structures,
	// reused across syncs (neither outlives the sync call).
	byNodeScratch   map[string]nodePods
	nodeSeenScratch []string
	// selScratch holds the selector of the DaemonSet being synced as a flat
	// list; empty between syncs.
	selScratch []spec.LabelPair
}

// nodePods is one node's share of a DaemonSet's pods, in view order. The
// steady state is exactly one pod per node, so the first is kept by value:
// the scratch map is cleared every sync, and a slice per node would be
// allocated afresh each time (500 nodes × every resync).
type nodePods struct {
	first *spec.Pod
	more  []*spec.Pod
}

// all materialises the group as a slice, for the rare paths that act on
// every pod of a node: ineligible node, duplicates, vanished node.
func (g nodePods) all() []*spec.Pod {
	if g.first == nil {
		return nil
	}
	return append([]*spec.Pod{g.first}, g.more...)
}

func newDaemonSetController(m *Manager) *daemonSetController {
	c := &daemonSetController{}
	c.keyed = newKeyed(m, spec.KindDaemonSet, c.sync)
	return c
}

func (c *daemonSetController) reset() {
	c.q.reset()
	clear(c.byNodeScratch)
	c.nodeSeenScratch = emptied(c.nodeSeenScratch)
}

func (c *daemonSetController) enqueueFor(ev apiserver.WatchEvent) {
	switch ev.Kind {
	case spec.KindDaemonSet:
		c.q.add(objKey(ev.Object))
	case spec.KindNode: // not a heartbeat: Manager.route drops those
		c.resync()
	case spec.KindPod:
		meta := ev.Object.Meta()
		if ref := meta.ControllerOf(); ref != nil && ref.Kind == string(spec.KindDaemonSet) {
			c.q.add(meta.Namespace + "/" + ref.Name)
		}
	}
}

func (c *daemonSetController) sync(key string) {
	ns, _ := splitKey(key)
	obj, ok := c.m.views.GetByKey(spec.KindDaemonSet, key)
	if !ok {
		return
	}
	ds := obj.(*spec.DaemonSet)

	// Group this DaemonSet's pods by node. Identification goes through the
	// selector AND the owner reference, like the ReplicaSet controller.
	// Informer-view scan: pods are only grouped and inspected; release
	// mutates a private clone (see Manager.releasePod). nodeSeen records
	// first-seen order so the missing-node sweep below is deterministic (map
	// iteration would randomize delete order between runs).
	if c.byNodeScratch == nil {
		c.byNodeScratch = make(map[string]nodePods)
	} else {
		clear(c.byNodeScratch)
	}
	podsByNode := c.byNodeScratch
	nodeSeen := c.nodeSeenScratch[:0]
	sel := ds.Spec.Selector.AppendPairs(c.selScratch)
	verdict := labelVerdict{sel: sel}
	c.m.views.ForEach(spec.KindPod, ns, func(po spec.Object) bool {
		pod := po.(*spec.Pod)
		if !pod.Active() {
			return true
		}
		ref := pod.Metadata.ControllerOf()
		if ref == nil || ref.UID != ds.Metadata.UID {
			return true
		}
		if !verdict.matches(pod.Metadata.Labels) {
			// The pod no longer looks like ours: release it. The replacement
			// spawned below starts the uncontrolled-replication loop if the
			// corruption is in the template.
			c.m.releasePod(pod)
			return true
		}
		group, seen := podsByNode[pod.Spec.NodeName]
		if !seen {
			nodeSeen = append(nodeSeen, pod.Spec.NodeName)
			group.first = pod
		} else {
			group.more = append(group.more, pod)
		}
		podsByNode[pod.Spec.NodeName] = group
		return true
	})

	var desired, current, ready int64
	c.m.views.ForEach(spec.KindNode, "", func(no spec.Object) bool {
		node := no.(*spec.Node)
		eligible := c.nodeEligible(ds, node)
		group := podsByNode[node.Metadata.Name]
		delete(podsByNode, node.Metadata.Name)
		if !eligible {
			for _, pod := range group.all() {
				_ = c.m.client.Delete(spec.KindPod, ns, pod.Metadata.Name)
			}
			return true
		}
		desired++
		switch {
		case group.first == nil:
			pod := c.m.childPod(spec.KindDaemonSet, &ds.Metadata, &ds.Spec.Template)
			pod.Spec.NodeName = node.Metadata.Name // daemon pods bypass the scheduler
			_ = c.m.client.Create(pod)
		case len(group.more) > 0:
			pods := group.all()
			for _, pod := range podsToDelete(pods, len(pods)-1) {
				_ = c.m.client.Delete(spec.KindPod, ns, pod.Metadata.Name)
			}
			current++
		default:
			current++
			if group.first.Status.Ready {
				ready++
			}
		}
		return true
	})
	// Pods on nodes that no longer exist, in first-seen node order.
	for _, name := range nodeSeen {
		for _, pod := range podsByNode[name].all() {
			_ = c.m.client.Delete(spec.KindPod, ns, pod.Metadata.Name)
		}
	}
	c.nodeSeenScratch = nodeSeen
	c.selScratch = emptied(sel)

	c.updateStatus(ds, desired, current, ready)
}

func (c *daemonSetController) nodeEligible(ds *spec.DaemonSet, node *spec.Node) bool {
	if node.Spec.Unschedulable {
		return false
	}
	for k, v := range ds.Spec.Template.Spec.NodeSelector {
		if node.Metadata.Labels[k] != v {
			return false
		}
	}
	// DaemonSet pods tolerate taints per their template tolerations; the
	// probe pod below carries them.
	probe := spec.Pod{Spec: ds.Spec.Template.Spec}
	for _, taint := range node.Spec.Taints {
		if taint.Effect == spec.TaintNoSchedule && !probe.Tolerates(taint) {
			return false
		}
	}
	return true
}

func (c *daemonSetController) updateStatus(ds *spec.DaemonSet, desired, current, ready int64) {
	if ds.Status.DesiredNumber == desired && ds.Status.CurrentNumber == current && ds.Status.NumberReady == ready {
		return
	}
	ds = spec.CloneForStatusAs(ds) // the argument is a sealed cache reference
	ds.Status.DesiredNumber = desired
	ds.Status.CurrentNumber = current
	ds.Status.NumberReady = ready
	_ = c.m.client.UpdateStatus(ds)
}
