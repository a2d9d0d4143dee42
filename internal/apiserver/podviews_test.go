package apiserver

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// FuzzPodSubviews holds the Pod bucket's sub-views to their invariant: after
// every set, delete, reset and prime of the bucket, the serving walk, the
// controlled-by-UID walk and the orphan classes equal a filter of a walk of
// the whole bucket (podviewRef).
//
// A program is a byte string of operations on the Pod bucket of a view that
// keeps the sub-views: sets of fresh pods under a few keys in four
// namespaces, one of them inside another's key range (a set on a held key is
// a replace), releases and adoptions of held pods, deletes, resets and primes
// (a reset, then sets in key order, as Reflector.prime makes them). A pod's phase, readiness, IP, label map and
// owner references come from the program: every phase, ready or not,
// addressed or not; one of two shared label maps (as Seal's interning leaves
// them), a private copy of one or none; no reference, a controller reference
// with an empty, a shared or a fresh UID, a non-controller one, or both.
func FuzzPodSubviews(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 0, 7, 2, 9, 9, 9, 1, 3, 0, 0})
	f.Add([]byte{0, 0x21, 0x40, 0x13, 0, 0x22, 0x41, 0x13, 4, 0, 4, 1, 1, 0, 5, 6, 0, 9})
	f.Add([]byte{6, 0x70, 0, 0x11, 0x33, 0x35, 0x7, 0x2a, 4, 2, 1, 1, 2, 6, 0x21, 0x25, 3})
	f.Add([]byte("released pods leave their controller for an orphan class"))
	f.Add([]byte{0, 0, 0x1a, 0, 4, 0})       // a serving orphan is set, then deleted
	f.Add([]byte{0, 0, 0x1a, 0x28, 3, 0, 0}) // a serving controlled pod is released
	f.Fuzz(func(t *testing.T, program []byte) {
		h := &podviewHarness{t: t, program: program, r: &Reflector{views: map[spec.Kind]*sortedBucket{}}}
		h.r.IndexPods()
		h.b = h.r.views[spec.KindPod]
		for step := 0; h.pc < len(program); step++ {
			h.step = step
			h.run()
			h.check()
		}
	})
}

var (
	// podviewNamespaces hold one that carries a "/", as a corrupted
	// namespace field can: its pods are in web's key range.
	podviewNamespaces = []string{"default", "kube-system", "web", "web/x"}
	podviewUIDs       = []string{"", "uid-rs-a", "uid-rs-b"}
	podviewPhases     = []string{"", spec.PodPending, spec.PodRunning, spec.PodSucceeded, spec.PodFailed}
	// podviewMaps are two label maps the way Seal leaves the labels of
	// pods stamped from one template: one instance shared by all of them.
	podviewMaps = []map[string]string{{"app": "web"}, {"app": "db", "tier": "back"}}
	// podviewSelectors are the selectors the orphan-class answer is asked
	// for: each map's, one matching both, none matching either, and empty.
	podviewSelectors = [][]spec.LabelPair{
		{{Key: "app", Value: "web"}},
		{{Key: "app", Value: "db"}, {Key: "tier", Value: "back"}},
		{{Key: "tier", Value: "back"}},
		{{Key: "app", Value: "cache"}},
		nil,
	}
)

type podviewHarness struct {
	t       *testing.T
	program []byte
	pc      int
	step    int
	r       *Reflector
	b       *sortedBucket
	uids    int    // fresh controller UIDs drawn
	last    string // the operation the step made
}

// byte returns the program's next byte, 0 past its end.
func (h *podviewHarness) byte() int {
	if h.pc >= len(h.program) {
		h.pc++
		return 0
	}
	h.pc++
	return int(h.program[h.pc-1])
}

func (h *podviewHarness) key() (ns, name string) {
	b := h.byte()
	return podviewNamespaces[b%len(podviewNamespaces)], fmt.Sprintf("pod-%d", b/len(podviewNamespaces)%5)
}

// pod builds a fresh pod named ns/name from the program's next two bytes.
func (h *podviewHarness) pod(ns, name string) *spec.Pod {
	a, b := h.byte(), h.byte()
	pod := &spec.Pod{Metadata: spec.ObjectMeta{Namespace: ns, Name: name}}
	pod.Status.Phase = podviewPhases[a%len(podviewPhases)]
	pod.Status.Ready = a&0x08 != 0
	if a&0x10 != 0 {
		pod.Status.PodIP = "10.244.0." + name[len(name)-1:]
	}
	switch b % 4 {
	case 0, 1:
		pod.Metadata.Labels = podviewMaps[b%4]
	case 2:
		pod.Metadata.Labels = map[string]string{"app": "web"} // equal to a shared map, not it
	}
	pod.Metadata.OwnerReferences = h.refs(b >> 2)
	return pod
}

// refs draws owner references: none, a non-controller one, a controller one
// (empty, shared or fresh UID), or a non-controller one before a controller.
func (h *podviewHarness) refs(b int) []spec.OwnerReference {
	controller := func() spec.OwnerReference {
		uid := podviewUIDs[b>>3%len(podviewUIDs)]
		if b&0x20 != 0 {
			h.uids++
			uid = fmt.Sprintf("uid-own-%d", h.uids%3)
		}
		return spec.OwnerReference{Kind: string(spec.KindReplicaSet), Name: "rs", UID: uid, Controller: true}
	}
	other := spec.OwnerReference{Kind: string(spec.KindDeployment), Name: "d", UID: "uid-rs-a"}
	switch b % 4 {
	case 1:
		return []spec.OwnerReference{other}
	case 2:
		return []spec.OwnerReference{controller()}
	case 3:
		return []spec.OwnerReference{other, controller()}
	}
	return nil
}

func (h *podviewHarness) set(pod *spec.Pod) {
	h.b.set(pod.Metadata.NamespacedName(), pod)
}

func (h *podviewHarness) run() {
	h.last = "nothing"
	switch h.byte() % 8 {
	case 0, 1, 2: // set: insert, or replace what the key holds
		ns, name := h.key()
		pod := h.pod(ns, name)
		h.last = fmt.Sprintf("set %s %s ready=%v ip=%q refs=%v labels=%v", pod.Metadata.NamespacedName(),
			pod.Status.Phase, pod.Status.Ready, pod.Status.PodIP, pod.Metadata.OwnerReferences, pod.Metadata.Labels)
		h.set(pod)
	case 3: // release or adopt a held pod: the same pod, its references replaced
		if len(h.b.objs) == 0 {
			return
		}
		held := h.b.objs[h.byte()%len(h.b.objs)].(*spec.Pod)
		pod := *held
		pod.Metadata.OwnerReferences = h.refs(h.byte())
		h.last = fmt.Sprintf("re-own %s refs=%v", pod.Metadata.NamespacedName(), pod.Metadata.OwnerReferences)
		h.set(&pod)
	case 4, 5:
		ns, name := h.key()
		h.last = "delete " + ns + "/" + name
		h.b.delete(ns + "/" + name)
	case 6:
		h.last = "reset"
		h.b.reset()
	case 7: // prime: a reset, then sets in key order
		n := h.byte() % 8
		var pods []*spec.Pod
		for i := 0; i < n; i++ {
			ns, name := h.key()
			pods = append(pods, h.pod(ns, name))
		}
		slices.SortStableFunc(pods, func(a, b *spec.Pod) int {
			return strings.Compare(a.Metadata.NamespacedName(), b.Metadata.NamespacedName())
		})
		pods = slices.CompactFunc(pods, func(a, b *spec.Pod) bool {
			return a.Metadata.NamespacedName() == b.Metadata.NamespacedName()
		})
		h.last = fmt.Sprintf("prime %d pods", len(pods))
		h.b.reset()
		for _, pod := range pods {
			h.set(pod)
		}
	}
}

func (h *podviewHarness) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("step %d (%s): %s", h.step, h.last, fmt.Sprintf(format, args...))
}

// check holds every sub-view to the filter of the whole bucket.
func (h *podviewHarness) check() {
	h.t.Helper()
	ref := podviewRef{b: h.b}
	for _, ns := range append([]string{"", "absent"}, podviewNamespaces...) {
		var got []*spec.Pod
		h.r.ForEachServing(ns, func(p *spec.Pod) bool { got = append(got, p); return true })
		if want := ref.serving(ns); !slices.Equal(got, want) {
			h.fatalf("serving pods of %q: %s, want %s", ns, names(got), names(want))
		}
		for _, uid := range append([]string{"uid-own-0", "uid-own-1", "uid-own-2", "uid-none"}, podviewUIDs...) {
			got = got[:0]
			h.r.ForEachControlledBy(ns, uid, func(p *spec.Pod) bool { got = append(got, p); return true })
			if want := ref.controlledBy(ns, uid); !slices.Equal(got, want) {
				h.fatalf("pods of %q controlled by %q: %s, want %s", ns, uid, names(got), names(want))
			}
		}
	}
	for _, ns := range podviewNamespaces {
		if strings.Contains(ns, "/") {
			continue // no key range of its own: SplitNamespacedName never returns it
		}
		classes := map[uintptr]int{}
		h.r.ForEachOrphanLabels(ns, func(labels map[string]string) bool {
			classes[reflect.ValueOf(labels).Pointer()]++
			return true
		})
		want := ref.orphanClasses(ns)
		if len(classes) != len(want) {
			h.fatalf("namespace %q has %d orphan classes, want %d", ns, len(classes), len(want))
		}
		for _, c := range h.b.pods.orphans[ns] {
			if classes[reflect.ValueOf(c.labels).Pointer()] != 1 {
				h.fatalf("namespace %q holds two orphan classes of labels %v", ns, c.labels)
			}
			if n := want[reflect.ValueOf(c.labels).Pointer()]; c.n != n {
				h.fatalf("namespace %q counts %d orphans with labels %v, want %d", ns, c.n, c.labels, n)
			}
		}
		for _, sel := range podviewSelectors {
			got := false
			h.r.ForEachOrphanLabels(ns, func(labels map[string]string) bool {
				got = spec.PairsMatch(sel, labels)
				return !got
			})
			if want := ref.orphanMatches(ns, sel); got != want {
				h.fatalf("an orphan of %q matches %v: %v, want %v", ns, sel, got, want)
			}
		}
	}
}

// podviewRef answers what each sub-view must hold by walking the whole bucket.
type podviewRef struct{ b *sortedBucket }

func (r podviewRef) pods(ns string, keep func(*spec.Pod) bool) []*spec.Pod {
	var out []*spec.Pod
	i, j := r.b.nsRange(ns)
	for ; i < j; i++ {
		if pod := r.b.objs[i].(*spec.Pod); keep(pod) {
			out = append(out, pod)
		}
	}
	return out
}

func (r podviewRef) serving(ns string) []*spec.Pod {
	return r.pods(ns, func(p *spec.Pod) bool { return p.Active() && p.Status.Ready && p.Status.PodIP != "" })
}

func (r podviewRef) controlledBy(ns, uid string) []*spec.Pod {
	return r.pods(ns, func(p *spec.Pod) bool {
		ref := p.Metadata.ControllerOf()
		return ref != nil && ref.UID == uid
	})
}

func (r podviewRef) orphans(ns string) []*spec.Pod {
	return r.pods(ns, func(p *spec.Pod) bool { return p.Active() && p.Metadata.ControllerOf() == nil })
}

// orphanClasses counts the namespace's orphans by label-map identity.
func (r podviewRef) orphanClasses(ns string) map[uintptr]int {
	out := map[uintptr]int{}
	for _, p := range r.orphans(ns) {
		out[reflect.ValueOf(p.Metadata.Labels).Pointer()]++
	}
	return out
}

func (r podviewRef) orphanMatches(ns string, sel []spec.LabelPair) bool {
	for _, p := range r.orphans(ns) {
		if spec.PairsMatch(sel, p.Metadata.Labels) {
			return true
		}
	}
	return false
}

func names(pods []*spec.Pod) []string {
	out := make([]string, len(pods))
	for i, p := range pods {
		out[i] = p.Metadata.NamespacedName()
	}
	return out
}
