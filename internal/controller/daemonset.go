package controller

import (
	"slices"

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
	// nodeNames is the Node view's names in view order and nodePos each
	// name's first position in it: the positions a sync groups pods by. Every
	// sync checks them against the view and rebuilds them only when a name
	// moved, which at 500 nodes is almost never. Emptied by reset.
	nodeNames []string
	nodePos   map[string]int
	// groups[i] is the synced DaemonSet's share of the pods on the node at
	// position i, and absent (in absentSeen's first-seen order) its pods on
	// nodes the view does not hold. Scratch for one sync: empty between syncs.
	groups     []nodePods
	absent     map[string]nodePods
	absentSeen []string
	// selScratch holds the selector of the DaemonSet being synced as a flat
	// list; empty between syncs.
	selScratch []spec.LabelPair
}

// nodePods is one node's share of a DaemonSet's pods, in view order. The
// steady state is exactly one pod per node, so the first is kept by value and
// a group of one allocates nothing.
type nodePods struct {
	first *spec.Pod
	more  []*spec.Pod
}

func (g *nodePods) add(pod *spec.Pod) {
	if g.first == nil {
		g.first = pod
	} else {
		g.more = append(g.more, pod)
	}
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
	c := &daemonSetController{nodePos: make(map[string]int), absent: make(map[string]nodePods)}
	c.keyed = newKeyed(m, spec.KindDaemonSet, c.sync)
	return c
}

func (c *daemonSetController) reset() {
	c.q.reset()
	c.nodeNames = emptied(c.nodeNames)
	clear(c.nodePos)
	c.groups = emptied(c.groups)
	clear(c.absent)
	c.absentSeen = emptied(c.absentSeen)
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

// indexNodes brings nodeNames and nodePos in line with the Node view and
// sizes groups to it. The view's names are the same strings sync after sync,
// so the check is one pointer-equal string compare per node; a corrupted
// duplicate name keeps the first position, as the map of names it replaced
// handed the first node in view order all the name's pods.
func (c *daemonSetController) indexNodes() {
	same := c.m.views.Len(spec.KindNode) == len(c.nodeNames)
	if same {
		i := 0
		c.m.views.ForEach(spec.KindNode, "", func(no spec.Object) bool {
			same = no.Meta().Name == c.nodeNames[i]
			i++
			return same
		})
	}
	if same {
		return
	}
	names := c.nodeNames[:0]
	clear(c.nodePos)
	c.m.views.ForEach(spec.KindNode, "", func(no spec.Object) bool {
		name := no.Meta().Name
		if _, dup := c.nodePos[name]; !dup {
			c.nodePos[name] = len(names)
		}
		names = append(names, name)
		return true
	})
	c.nodeNames = names
	c.groups = slices.Grow(c.groups[:0], len(names))[:len(names)]
}

func (c *daemonSetController) sync(key string) {
	ns, _ := spec.SplitNamespacedName(key)
	obj, ok := c.m.views.GetByKey(spec.KindDaemonSet, key)
	if !ok {
		return
	}
	ds := obj.(*spec.DaemonSet)

	// Group this DaemonSet's pods by node position. Identification goes
	// through the selector AND the owner reference, like the ReplicaSet
	// controller. Informer-view scan: pods are only grouped and inspected;
	// release mutates a private clone (see Manager.releasePod). A pod whose
	// node the view lacks is grouped by name, in first-seen order, so the
	// missing-node sweep below is deterministic.
	c.indexNodes()
	groups, absentSeen := c.groups, c.absentSeen[:0]
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
		if i, ok := c.nodePos[pod.Spec.NodeName]; ok {
			groups[i].add(pod)
			return true
		}
		group, seen := c.absent[pod.Spec.NodeName]
		if !seen {
			absentSeen = append(absentSeen, pod.Spec.NodeName)
		}
		group.add(pod)
		c.absent[pod.Spec.NodeName] = group
		return true
	})

	// DaemonSet pods tolerate taints per their template tolerations; the
	// probe pod carries them.
	probe := spec.Pod{Spec: ds.Spec.Template.Spec}
	var desired, current, ready int64
	i := 0
	c.m.views.ForEach(spec.KindNode, "", func(no spec.Object) bool {
		node := no.(*spec.Node)
		group := groups[i]
		i++
		if !nodeEligible(ds, &probe, node) {
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
	for _, name := range absentSeen {
		for _, pod := range c.absent[name].all() {
			_ = c.m.client.Delete(spec.KindPod, ns, pod.Metadata.Name)
		}
	}
	clear(groups)
	clear(c.absent)
	c.absentSeen = emptied(absentSeen)
	c.selScratch = emptied(sel)

	c.updateStatus(ds, desired, current, ready)
}

// nodeEligible reports whether ds places a pod on node; probe carries the
// DaemonSet's template spec, whose tolerations decide the taints.
func nodeEligible(ds *spec.DaemonSet, probe *spec.Pod, node *spec.Node) bool {
	if node.Spec.Unschedulable {
		return false
	}
	for k, v := range ds.Spec.Template.Spec.NodeSelector {
		if node.Metadata.Labels[k] != v {
			return false
		}
	}
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
