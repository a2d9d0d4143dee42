package controller

import (
	"errors"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// deploymentController materializes each Deployment as a ReplicaSet per
// pod-template hash and performs rolling updates bounded by MaxSurge and
// MaxUnavailable (§II-D's MaxUnavailability strategy).
type deploymentController struct {
	m *Manager
	q *queue
	// hashes memoizes templateHash per sealed Deployment revision. Sealed
	// objects are immutable, so the object pointer is a sound cache key; a
	// new revision is a new decoded object and misses naturally. Without
	// this every sync re-serializes the pod template just to hash it.
	hashes map[*spec.Deployment]string
	// ownedScratch is the owned-ReplicaSet buffer reused across syncs (the
	// collected set never outlives the sync call).
	ownedScratch []*spec.ReplicaSet
}

func newDeploymentController(m *Manager) *deploymentController {
	c := &deploymentController{m: m, hashes: make(map[*spec.Deployment]string)}
	c.q = newQueue(m.loop, syncDelay, c.sync)
	return c
}

// maxHashCacheEntries bounds the memo table; revisions churn, so the table is
// cleared wholesale when it fills (cheaper and simpler than eviction, and the
// working set is a handful of live deployments).
const maxHashCacheEntries = 256

func (c *deploymentController) hashFor(d *spec.Deployment) string {
	if !d.Metadata.Sealed() {
		return templateHash(d.Spec.Template)
	}
	if h, ok := c.hashes[d]; ok {
		return h
	}
	if len(c.hashes) >= maxHashCacheEntries {
		clear(c.hashes)
	}
	h := templateHash(d.Spec.Template)
	c.hashes[d] = h
	return h
}

func (c *deploymentController) start() { c.q.start() }
func (c *deploymentController) stop()  { c.q.stop() }

func (c *deploymentController) reset() {
	c.q.reset()
	clear(c.hashes)
	c.ownedScratch = emptied(c.ownedScratch)
}

func (c *deploymentController) enqueueFor(ev apiserver.WatchEvent) {
	switch ev.Kind {
	case spec.KindDeployment:
		c.q.add(objKey(ev.Object))
	case spec.KindReplicaSet:
		meta := ev.Object.Meta()
		if ref := meta.ControllerOf(); ref != nil && ref.Kind == string(spec.KindDeployment) {
			c.q.add(meta.Namespace + "/" + ref.Name)
		}
	}
}

func (c *deploymentController) resync() {
	c.m.views.ForEach(spec.KindDeployment, "", func(o spec.Object) bool {
		c.q.add(objKey(o))
		return true
	})
}

func (c *deploymentController) sync(key string) {
	ns, _ := splitKey(key)
	obj, ok := c.m.views.GetByKey(spec.KindDeployment, key)
	if !ok {
		return
	}
	d := obj.(*spec.Deployment)

	// Collect owned ReplicaSets from the informer view (scaling mutates a
	// private clone, see setReplicas).
	owned := c.ownedScratch[:0]
	c.m.views.ForEach(spec.KindReplicaSet, ns, func(ro spec.Object) bool {
		rs := ro.(*spec.ReplicaSet)
		if ref := rs.Metadata.ControllerOf(); ref != nil && ref.UID == d.Metadata.UID {
			owned = append(owned, rs)
		}
		return true
	})
	c.ownedScratch = owned

	hash := c.hashFor(d)
	var newRS *spec.ReplicaSet
	var oldRSs []*spec.ReplicaSet
	for _, rs := range owned {
		if rs.Metadata.Labels[spec.LabelPodHash] == hash {
			newRS = rs
		} else {
			oldRSs = append(oldRSs, rs)
		}
	}

	if newRS == nil {
		newRS = c.createReplicaSet(d, hash)
		if newRS == nil {
			c.q.addAfter(key, conflictRetryDelay)
			return
		}
	}

	c.scale(d, newRS, oldRSs)
	c.updateStatus(d, newRS, oldRSs)
}

func (c *deploymentController) createReplicaSet(d *spec.Deployment, hash string) *spec.ReplicaSet {
	tpl := spec.PodTemplate{
		Labels: cloneLabels(d.Spec.Template.Labels),
		Spec:   *clonePodSpec(&d.Spec.Template.Spec),
	}
	tpl.Labels[spec.LabelPodHash] = hash
	sel := spec.LabelSelector{MatchLabels: cloneLabels(d.Spec.Selector.MatchLabels)}
	sel.MatchLabels[spec.LabelPodHash] = hash

	rs := &spec.ReplicaSet{
		Metadata: spec.ObjectMeta{
			Name:      d.Metadata.Name + "-" + hash,
			Namespace: d.Metadata.Namespace,
			Labels:    cloneLabels(tpl.Labels),
			OwnerReferences: []spec.OwnerReference{{
				Kind: string(spec.KindDeployment), Name: d.Metadata.Name,
				UID: d.Metadata.UID, Controller: true,
			}},
		},
		Spec: spec.ReplicaSetSpec{
			Replicas: 0, // scaled up by the rolling logic
			Selector: sel,
			Template: tpl,
		},
	}
	if err := c.m.client.Create(rs); err != nil {
		if errors.Is(err, apiserver.ErrAlreadyExists) {
			if obj, getErr := c.m.client.Get(spec.KindReplicaSet, rs.Metadata.Namespace, rs.Metadata.Name); getErr == nil {
				return obj.(*spec.ReplicaSet)
			}
		}
		return nil
	}
	obj, err := c.m.client.Get(spec.KindReplicaSet, rs.Metadata.Namespace, rs.Metadata.Name)
	if err != nil {
		return nil
	}
	return obj.(*spec.ReplicaSet)
}

// scale performs one step of the rolling update. With no old ReplicaSets it
// simply tracks the desired replica count.
func (c *deploymentController) scale(d *spec.Deployment, newRS *spec.ReplicaSet, oldRSs []*spec.ReplicaSet) {
	maxSurge, maxUnavailable := d.Spec.MaxSurge, d.Spec.MaxUnavailable
	if maxSurge == 0 && maxUnavailable == 0 {
		maxSurge = 1 // both zero would deadlock the rollout
	}

	totalSpec := newRS.Spec.Replicas
	var oldReady int64
	for _, rs := range oldRSs {
		totalSpec += rs.Spec.Replicas
		oldReady += rs.Status.ReadyReplicas
	}

	// Scale the new ReplicaSet up within the surge budget.
	if newRS.Spec.Replicas < d.Spec.Replicas {
		allowed := d.Spec.Replicas + maxSurge - totalSpec
		if allowed > 0 {
			target := newRS.Spec.Replicas + allowed
			if target > d.Spec.Replicas {
				target = d.Spec.Replicas
			}
			c.setReplicas(newRS, target)
		}
	} else if newRS.Spec.Replicas > d.Spec.Replicas {
		c.setReplicas(newRS, d.Spec.Replicas)
	}

	// Scale old ReplicaSets down within the availability budget.
	minAvailable := d.Spec.Replicas - maxUnavailable
	totalReady := newRS.Status.ReadyReplicas + oldReady
	budget := totalReady - minAvailable
	for _, rs := range oldRSs {
		if budget <= 0 {
			break
		}
		if rs.Spec.Replicas == 0 {
			continue
		}
		step := rs.Spec.Replicas
		if step > budget {
			step = budget
		}
		c.setReplicas(rs, rs.Spec.Replicas-step)
		budget -= step
	}
}

func (c *deploymentController) setReplicas(rs *spec.ReplicaSet, n int64) {
	if rs.Spec.Replicas == n {
		return
	}
	rs = spec.CloneForWriteAs(rs) // the argument may be a sealed cache reference
	rs.Spec.Replicas = n
	if err := c.m.client.Update(rs); errors.Is(err, apiserver.ErrConflict) {
		// Re-read next sync; the resync loop will retry.
		c.q.addAfter(objKey(rs), conflictRetryDelay)
	}
}

func (c *deploymentController) updateStatus(d *spec.Deployment, newRS *spec.ReplicaSet, oldRSs []*spec.ReplicaSet) {
	replicas, ready := newRS.Status.Replicas, newRS.Status.ReadyReplicas
	for _, rs := range oldRSs {
		replicas += rs.Status.Replicas
		ready += rs.Status.ReadyReplicas
	}
	if d.Status.Replicas == replicas && d.Status.ReadyReplicas == ready &&
		d.Status.UpdatedReplicas == newRS.Status.Replicas {
		return
	}
	d = spec.CloneForStatusAs(d) // the argument is a sealed cache reference
	d.Status.Replicas = replicas
	d.Status.ReadyReplicas = ready
	d.Status.UpdatedReplicas = newRS.Status.Replicas
	_ = c.m.client.UpdateStatus(d)
}
