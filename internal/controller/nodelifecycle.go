package controller

import (
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// nodeLifecycleController watches node heartbeats, marks silent nodes
// NotReady, taints them NoExecute, and evicts their pods after a grace
// period — the machinery behind the failover workload and behind the
// paper's Figure 2 outage (heartbeats failing cluster-wide triggering mass
// eviction). Full disruption mode (§II-D) suspends evictions when every
// node looks unhealthy, since the fault is then likelier in the heartbeat
// path than on every node at once.
type nodeLifecycleController struct {
	m      *Manager
	ticker sim.Timer
	// taintedSince records when a NoExecute taint was first observed per
	// node, to honor the eviction wait.
	taintedSince map[string]time.Duration
	// monitorPending coalesces event-driven monitor passes: a burst of node
	// events in one tick (five heartbeats landing together) schedules one
	// monitor, not five. monitorFn is the prebuilt callback so scheduling
	// allocates no closure.
	monitorPending bool
	monitorFn      func()
	// scratch is the reused node slice the monitor pass collects into.
	scratch []*spec.Node
	// nodeGen remembers each node's last-seen Generation, to tell heartbeats
	// (status-only, generation unchanged) from spec changes. Freshness only
	// matters at monitor-poll granularity, so heartbeats ride the periodic
	// ticker; without the distinction a 500-node cluster's heartbeat stream
	// would drive a full monitor pass almost every tick.
	nodeGen map[string]int64
}

func newNodeLifecycleController(m *Manager) *nodeLifecycleController {
	c := &nodeLifecycleController{m: m, taintedSince: make(map[string]time.Duration)}
	c.monitorFn = func() {
		c.monitorPending = false
		c.monitor()
	}
	return c
}

func (c *nodeLifecycleController) start() {
	clear(c.taintedSince)
	c.ticker = c.m.loop.Every(nodeMonitorPeriod, c.monitor)
}

func (c *nodeLifecycleController) stop() {
	c.ticker.Stop()
}

func (c *nodeLifecycleController) reset() {
	c.ticker = sim.Timer{}
	clear(c.taintedSince)
	c.monitorPending = false
	c.scratch = emptied(c.scratch)
	clear(c.nodeGen)
}

func (c *nodeLifecycleController) enqueueFor(ev apiserver.WatchEvent) {
	// Node state is polled on a fixed monitor period, like the real
	// controller; node add/remove and spec changes (taints, cordons) react
	// immediately though.
	if ev.Kind != spec.KindNode {
		return
	}
	meta := ev.Object.Meta()
	if ev.Type == apiserver.Deleted {
		delete(c.nodeGen, meta.Name)
	} else {
		gen, known := c.nodeGen[meta.Name]
		if c.nodeGen == nil {
			c.nodeGen = make(map[string]int64)
		}
		c.nodeGen[meta.Name] = meta.Generation
		if ev.Type == apiserver.Modified && (!known || gen == meta.Generation) {
			// A heartbeat (or its first sighting after a restart): freshness
			// is re-read by the next periodic monitor anyway.
			return
		}
	}
	if !c.monitorPending {
		c.monitorPending = true
		c.m.loop.After(0, c.monitorFn)
	}
}

func (c *nodeLifecycleController) resync() {}

func (c *nodeLifecycleController) monitor() {
	if !c.m.running {
		return
	}
	now := c.m.loop.Time().UnixMilli()
	nodes := c.scratch[:0]
	c.m.views.ForEach(spec.KindNode, "", func(o spec.Object) bool {
		nodes = append(nodes, o.(*spec.Node))
		return true
	})
	c.scratch = nodes

	unhealthy := 0
	total := 0
	for _, node := range nodes {
		total++
		fresh := now-node.Status.LastHeartbeatMillis <= nodeGracePeriod.Milliseconds()
		switch {
		case !fresh && node.Status.Ready:
			marked := spec.CloneForStatusAs(node) // node is a sealed cache reference
			marked.Status.Ready = false
			if c.m.client.UpdateStatus(marked) == nil {
				c.addUnreachableTaint(node.Metadata.Name)
			}
			unhealthy++
		case !fresh:
			c.addUnreachableTaint(node.Metadata.Name)
			unhealthy++
		case fresh && !node.Status.Ready:
			// The kubelet's own heartbeat sets Ready=true; once it does,
			// clear our taint.
			unhealthy++
		default:
			c.removeUnreachableTaint(node)
		}
	}

	// Full disruption mode: every node unhealthy → the monitoring path
	// itself is suspect; stop evicting.
	if total > 0 && unhealthy == total {
		return
	}
	c.evict(nodes)
}

func (c *nodeLifecycleController) addUnreachableTaint(nodeName string) {
	obj, ok := c.m.views.Get(spec.KindNode, "", nodeName)
	if !ok {
		return
	}
	node := obj.(*spec.Node)
	for _, t := range node.Spec.Taints {
		if t.Key == taintUnreachable {
			return
		}
	}
	node = spec.CloneForWriteAs(node) // sealed cache reference
	node.Spec.Taints = append(node.Spec.Taints, spec.Taint{
		Key: taintUnreachable, Effect: spec.TaintNoExecute,
	})
	_ = c.m.client.Update(node)
}

func (c *nodeLifecycleController) removeUnreachableTaint(node *spec.Node) {
	var kept []spec.Taint
	removed := false
	for _, t := range node.Spec.Taints {
		if t.Key == taintUnreachable {
			removed = true
			continue
		}
		kept = append(kept, t)
	}
	if !removed {
		return
	}
	node = spec.CloneForWriteAs(node) // sealed cache reference
	node.Spec.Taints = kept
	_ = c.m.client.Update(node)
}

// evict deletes pods from nodes carrying NoExecute taints the pod does not
// tolerate, after the eviction wait has elapsed.
func (c *nodeLifecycleController) evict(nodes []*spec.Node) {
	now := c.m.loop.Now()
	tainted := make(map[string][]spec.Taint)
	for _, node := range nodes {
		var noExec []spec.Taint
		for _, t := range node.Spec.Taints {
			if t.Effect == spec.TaintNoExecute {
				noExec = append(noExec, t)
			}
		}
		if len(noExec) > 0 {
			tainted[node.Metadata.Name] = noExec
			if _, seen := c.taintedSince[node.Metadata.Name]; !seen {
				c.taintedSince[node.Metadata.Name] = now
			}
		} else {
			delete(c.taintedSince, node.Metadata.Name)
		}
	}
	if len(tainted) == 0 {
		return
	}
	c.m.views.ForEach(spec.KindPod, "", func(po spec.Object) bool {
		pod := po.(*spec.Pod)
		taints, onTainted := tainted[pod.Spec.NodeName]
		if !onTainted || !pod.Active() {
			return true
		}
		if now-c.taintedSince[pod.Spec.NodeName] < evictionWait {
			return true
		}
		for _, t := range taints {
			if !pod.Tolerates(t) {
				_ = c.m.client.Delete(spec.KindPod, pod.Metadata.Namespace, pod.Metadata.Name)
				return true
			}
		}
		return true
	})
}
