package apiserver

import (
	"slices"
	"strings"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// podSubviews are the three sub-views a Reflector keeps of its Pod bucket
// once a consumer asks for them (Reflector.IndexPods): the pods a sync can act
// on, so that it need not walk every pod of a namespace to find them. The
// bucket's set, delete and reset keep them in step — the one place priming,
// watch events, resync repairs and rewinds all pass through — and after each
// of those every sub-view equals a filter of the bucket:
//
//   - serving: the pods that are Active, Ready and addressed (Status.PodIP),
//     in key order;
//   - controlled: the pods with a ControllerOf, each with that reference's
//     UID, ordered by UID and then by key, so one controller's pods are one
//     run in key order;
//   - orphans: per namespace, the Active pods without a controller, counted
//     by label-map identity (spec.SameMap). Seal interns small label maps, so
//     the orphans of one template are one class however many a runaway
//     makes; a class holds its map and a count, never a pod. The namespace
//     is the key's, up to its first "/" (spec.SplitNamespacedName): the
//     pods a walk of that namespace's key range meets, even when a
//     corrupted namespace field carries a "/" of its own.
type podSubviews struct {
	serving    []*spec.Pod
	controlled []controlledPod
	orphans    map[string][]orphanClass
}

// controlledPod is one entry of the controlled sub-view.
type controlledPod struct {
	uid string // the pod's ControllerOf().UID
	pod *spec.Pod
}

// orphanClass counts a namespace's orphans that share one label map.
type orphanClass struct {
	labels map[string]string
	n      int
}

func serves(p *spec.Pod) bool {
	return p != nil && p.Active() && p.Status.Ready && p.Status.PodIP != ""
}

func controllerOf(p *spec.Pod) *spec.OwnerReference {
	if p == nil {
		return nil
	}
	return p.Metadata.ControllerOf()
}

func orphaned(p *spec.Pod) bool {
	return p != nil && p.Active() && p.Metadata.ControllerOf() == nil
}

// moved folds the bucket's change at key, from object was to object is (nil
// for none), into the sub-views.
func (v *podSubviews) moved(key string, was, is spec.Object) {
	old, _ := was.(*spec.Pod)
	pod, _ := is.(*spec.Pod)

	if wasServing, isServing := serves(old), serves(pod); wasServing || isServing {
		i := len(v.serving)
		if !isServing || i > 0 && v.serving[i-1].Metadata.NamespacedName() >= key {
			i = servingIndex(v.serving, key)
		}
		switch {
		case wasServing && isServing:
			v.serving[i] = pod
		case isServing:
			v.serving = slices.Insert(v.serving, i, pod)
		default:
			v.serving = slices.Delete(v.serving, i, i+1)
		}
	}

	oldRef, ref := controllerOf(old), controllerOf(pod)
	switch {
	case oldRef != nil && ref != nil && oldRef.UID == ref.UID:
		v.controlled[controlledIndex(v.controlled, ref.UID, key)].pod = pod
	default:
		if oldRef != nil {
			i := controlledIndex(v.controlled, oldRef.UID, key)
			v.controlled = slices.Delete(v.controlled, i, i+1)
		}
		if ref != nil {
			i := controlledIndex(v.controlled, ref.UID, key)
			v.controlled = slices.Insert(v.controlled, i, controlledPod{uid: ref.UID, pod: pod})
		}
	}

	wasOrphan, isOrphan := orphaned(old), orphaned(pod)
	if wasOrphan && isOrphan && spec.SameMap(old.Metadata.Labels, pod.Metadata.Labels) {
		return
	}
	if wasOrphan {
		v.countOrphan(key, old.Metadata.Labels, -1)
	}
	if isOrphan {
		v.countOrphan(key, pod.Metadata.Labels, +1)
	}
}

// countOrphan adds d to the count of the orphan class of labels in key's
// namespace; a class is dropped when its count reaches zero.
func (v *podSubviews) countOrphan(key string, labels map[string]string, d int) {
	ns, _ := spec.SplitNamespacedName(key)
	classes := v.orphans[ns]
	for i := range classes {
		if !spec.SameMap(classes[i].labels, labels) {
			continue
		}
		if classes[i].n += d; classes[i].n == 0 {
			last := len(classes) - 1
			classes[i], classes[last] = classes[last], orphanClass{}
			v.orphans[ns] = classes[:last]
		}
		return
	}
	if v.orphans == nil {
		v.orphans = make(map[string][]orphanClass)
	}
	v.orphans[ns] = append(classes, orphanClass{labels: labels, n: d})
}

// reset empties the sub-views, keeping their arrays.
func (v *podSubviews) reset() {
	clear(v.serving)
	v.serving = v.serving[:0]
	clear(v.controlled)
	v.controlled = v.controlled[:0]
	for ns, classes := range v.orphans {
		clear(classes)
		v.orphans[ns] = classes[:0]
	}
}

// servingIndex returns the position of key in s, or where it would go.
func servingIndex(s []*spec.Pod, key string) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m].Metadata.NamespacedName() < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// controlledIndex returns the position of (uid, key) in s, or where it would
// go.
func controlledIndex(s []controlledPod, uid, key string) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e := s[m]; e.uid < uid || e.uid == uid && e.pod.Metadata.NamespacedName() < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// nsPrefix is the key prefix of namespace ns, "" for all of them.
func nsPrefix(ns string) string {
	if ns == "" {
		return ""
	}
	return ns + "/"
}

func (v *podSubviews) forEachServing(ns string, fn func(*spec.Pod) bool) {
	prefix := nsPrefix(ns)
	for i := servingIndex(v.serving, prefix); i < len(v.serving); i++ {
		pod := v.serving[i]
		if !strings.HasPrefix(pod.Metadata.NamespacedName(), prefix) || !fn(pod) {
			return
		}
	}
}

func (v *podSubviews) forEachControlledBy(ns, uid string, fn func(*spec.Pod) bool) {
	prefix := nsPrefix(ns)
	for i := controlledIndex(v.controlled, uid, prefix); i < len(v.controlled); i++ {
		e := v.controlled[i]
		if e.uid != uid || !strings.HasPrefix(e.pod.Metadata.NamespacedName(), prefix) || !fn(e.pod) {
			return
		}
	}
}

func (v *podSubviews) forEachOrphanLabels(ns string, fn func(map[string]string) bool) {
	for _, class := range v.orphans[ns] {
		if !fn(class.labels) {
			return
		}
	}
}
