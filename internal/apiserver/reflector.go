package apiserver

import (
	"sort"
	"strings"
	"time"

	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// Reflector maintains an informer-style local view of one or more kinds: a
// sorted, watch-updated mirror of the API server's objects, primed by one
// list and kept current by the sealed watch fan-out, with a low-frequency
// resync re-list as the safety net against lost watch notifications.
//
// This is the readiness pipeline the workload driver, the controllers, and
// the scheduler consume instead of re-listing the cluster on every poll: a
// view read is a local lookup over sealed references (zero copies, zero
// server traffic), and the only periodic list traffic left is the resync.
// The watch channel feeding the view is injectable (inject.ChannelWatch):
// a dropped or tampered event leaves the view stale until the next resync
// reconciles it against the server — exactly the informer-staleness failure
// mode the paper's architecture implies.
//
// A Reflector is loop-bound like every component: all methods must be called
// from the simulation loop's goroutine. View reads return sealed references
// under the same contract as Client.Get/List — read and retain freely,
// CloneForWrite before mutating.
type Reflector struct {
	loop   *sim.Loop
	client *Client
	kinds  []spec.Kind
	views  map[spec.Kind]*sortedBucket

	// onEvent, when set, observes every event applied to the view — live
	// watch deliveries and the synthetic events a resync emits when it
	// repairs a stale entry. It runs after the view reflects the event, so
	// handlers always read post-event state.
	onEvent func(WatchEvent)

	resyncEvery time.Duration
	resyncTimer sim.Timer
	cancels     []func()
	started     bool

	// resyncRepairs counts entries a resync had to fix — nonzero only when
	// watch events were lost (or arrived out of band), making watch-channel
	// staleness observable to tests and diagnostics.
	resyncRepairs int64
}

// sortedBucket holds one kind's objects in key order; keys and objs move in
// lockstep. A Reflector view keys it by namespace/name, the server's watch
// cache by store key — the same order, so view iteration order matches server
// list order.
type sortedBucket struct {
	keys []string
	objs []spec.Object
	// pods, when set, are the sub-views of a Reflector's Pod bucket
	// (Reflector.IndexPods), kept in step by set, delete and reset. The
	// server's watch cache keeps none.
	pods *podSubviews
}

// reset empties the bucket, keeping its arrays.
func (b *sortedBucket) reset() {
	b.keys = b.keys[:0]
	clear(b.objs)
	b.objs = b.objs[:0]
	if b.pods != nil {
		b.pods.reset()
	}
}

// set installs obj under key and reports whether it replaced an object there.
func (b *sortedBucket) set(key string, obj spec.Object) (replaced bool) {
	// Keys mostly arrive in order — a re-list walks the server's sorted
	// index, children are named by a counter — and one past the last is
	// appended without the search and the shift.
	var was spec.Object
	if n := len(b.keys); n == 0 || b.keys[n-1] < key {
		b.keys = append(b.keys, key)
		b.objs = append(b.objs, obj)
	} else if i := sort.SearchStrings(b.keys, key); i < len(b.keys) && b.keys[i] == key {
		was, b.objs[i] = b.objs[i], obj
	} else {
		b.keys = append(b.keys, "")
		copy(b.keys[i+1:], b.keys[i:])
		b.keys[i] = key
		b.objs = append(b.objs, nil)
		copy(b.objs[i+1:], b.objs[i:])
		b.objs[i] = obj
	}
	if b.pods != nil {
		b.pods.moved(key, was, obj)
	}
	return was != nil
}

// delete removes key and returns the object it held, if there was one.
func (b *sortedBucket) delete(key string) (spec.Object, bool) {
	i := sort.SearchStrings(b.keys, key)
	if i >= len(b.keys) || b.keys[i] != key {
		return nil, false
	}
	obj := b.objs[i]
	b.keys = append(b.keys[:i], b.keys[i+1:]...)
	copy(b.objs[i:], b.objs[i+1:])
	b.objs[len(b.objs)-1] = nil
	b.objs = b.objs[:len(b.objs)-1]
	if b.pods != nil {
		b.pods.moved(key, obj, nil)
	}
	return obj, true
}

func (b *sortedBucket) get(key string) (spec.Object, bool) {
	i := sort.SearchStrings(b.keys, key)
	if i < len(b.keys) && b.keys[i] == key {
		return b.objs[i], true
	}
	return nil, false
}

// nsLinear is how many keys past a namespace's first prefixRange compares one
// by one before it binary-searches for the end: most namespaces hold a handful
// of keys, and a short scan beats a search there.
const nsLinear = 8

// nsRange returns the [i, j) index range of keys in namespace ns ("" = all).
func (b *sortedBucket) nsRange(ns string) (int, int) {
	if ns == "" {
		return 0, len(b.keys)
	}
	return b.prefixRange(ns + "/")
}

// prefixRange returns the [i, j) index range of the keys carrying prefix. They
// are one contiguous run, so both ends are found by search: the start as the
// first key not below the prefix, the end as the first key of the run without
// it.
func (b *sortedBucket) prefixRange(prefix string) (int, int) {
	i := sort.SearchStrings(b.keys, prefix)
	j, hi := i, len(b.keys)
	for lim := min(i+nsLinear, hi); j < lim; j++ {
		if !strings.HasPrefix(b.keys[j], prefix) {
			return i, j
		}
	}
	for j < hi {
		m := int(uint(j+hi) >> 1)
		if strings.HasPrefix(b.keys[m], prefix) {
			j = m + 1
		} else {
			hi = m
		}
	}
	return i, j
}

// NewReflector builds a reflector over the given kinds (spec.Kinds() for all
// of them). resyncEvery is the safety-net re-list period; zero disables periodic
// resyncs (Resync can still be called explicitly). onEvent may be nil.
// Call Start to prime the view and begin watching.
func NewReflector(loop *sim.Loop, client *Client, resyncEvery time.Duration, onEvent func(WatchEvent), kinds ...spec.Kind) *Reflector {
	return &Reflector{
		loop:        loop,
		client:      client,
		kinds:       kinds,
		views:       make(map[spec.Kind]*sortedBucket, len(kinds)),
		onEvent:     onEvent,
		resyncEvery: resyncEvery,
	}
}

// Start primes the view with one list per kind and subscribes to the watch
// fan-out. Starting an already-started reflector is a no-op. In a forked
// cluster the prime list walks the restored store's state — the same re-list
// a component performs after a real restart.
func (r *Reflector) Start() {
	if r.started {
		return
	}
	r.started = true
	// Restarting a stopped reflector must not trust the detached view:
	// objects deleted while it was stopped would otherwise linger as
	// phantoms (prime only adds). Rebuild from scratch, like the re-list of
	// a restarted component — into the buckets it already has.
	for _, b := range r.views {
		b.reset()
	}
	for _, kind := range r.kinds {
		r.cancels = append(r.cancels, r.client.Watch(kind, r.apply))
	}
	r.prime()
	if r.resyncEvery > 0 {
		r.resyncTimer = r.loop.Every(r.resyncEvery, r.Resync)
	}
}

// Stop cancels the watch subscriptions and the resync timer. The view keeps
// its last state and stops updating.
func (r *Reflector) Stop() {
	if !r.started {
		return
	}
	r.started = false
	r.resyncTimer.Stop()
	for _, cancel := range r.cancels {
		cancel()
	}
	clear(r.cancels)
	r.cancels = r.cancels[:0]
}

// Reset returns the reflector to the state NewReflector left it in, keeping
// the memory of its views, for an owner that is itself being rewound. The
// watches and the resync timer are not cancelled: the server and the loop
// they were registered with have been reset and no longer know them.
func (r *Reflector) Reset() {
	r.started = false
	r.resyncTimer = sim.Timer{}
	clear(r.cancels)
	r.cancels = r.cancels[:0]
	for _, b := range r.views {
		b.reset()
	}
	r.resyncRepairs = 0
}

// prime loads the current server state into the view without emitting events
// (consumers that want the initial state iterate the view after Start).
func (r *Reflector) prime() {
	for _, kind := range r.kinds {
		b := r.bucket(kind)
		r.client.Range(kind, "", func(obj spec.Object) bool {
			b.set(obj.Meta().NamespacedName(), obj) // in key order: appends
			return true
		})
	}
}

func (r *Reflector) bucket(kind spec.Kind) *sortedBucket {
	b := r.views[kind]
	if b == nil {
		b = &sortedBucket{}
		r.views[kind] = b
	}
	return b
}

// apply is the watch callback: it folds one event into the view and forwards
// it to the consumer.
func (r *Reflector) apply(ev WatchEvent) {
	b := r.bucket(ev.Kind)
	key := ev.Object.Meta().NamespacedName()
	if ev.Type == Deleted {
		b.delete(key)
	} else {
		b.set(key, ev.Object)
	}
	if r.onEvent != nil {
		r.onEvent(ev)
	}
}

// Get returns the view's object of the given identity, or (nil, false).
func (r *Reflector) Get(kind spec.Kind, namespace, name string) (spec.Object, bool) {
	b := r.views[kind]
	if b == nil {
		return nil, false
	}
	return b.get(namespace + "/" + name)
}

// GetByKey is Get keyed by an existing "namespace/name" string, avoiding the
// re-concatenation on hot paths that already hold the key.
func (r *Reflector) GetByKey(kind spec.Kind, key string) (spec.Object, bool) {
	b := r.views[kind]
	if b == nil {
		return nil, false
	}
	return b.get(key)
}

// ForEach calls fn for every object of kind in namespace ns ("" = all) in
// namespace/name order, stopping early when fn returns false. It allocates
// nothing; the objects are sealed shared references.
//
// fn must not mutate the view (i.e. must not synchronously force watch
// deliveries — impossible on the loop — nor call Resync).
func (r *Reflector) ForEach(kind spec.Kind, ns string, fn func(spec.Object) bool) {
	b := r.views[kind]
	if b == nil {
		return
	}
	i, j := b.nsRange(ns)
	for ; i < j; i++ {
		if !fn(b.objs[i]) {
			return
		}
	}
}

// ForEachFrom calls fn for every object of kind whose key (namespace/name) is
// fromKey or after it, in key order, stopping early when fn returns false:
// ForEach over all namespaces, entered at fromKey by one search. The same
// contract as ForEach holds.
func (r *Reflector) ForEachFrom(kind spec.Kind, fromKey string, fn func(spec.Object) bool) {
	b := r.views[kind]
	if b == nil {
		return
	}
	for i := sort.SearchStrings(b.keys, fromKey); i < len(b.keys); i++ {
		if !fn(b.objs[i]) {
			return
		}
	}
}

// IndexPods makes the view keep the sub-views of its Pod bucket that
// ForEachServing, ForEachControlledBy and ForEachOrphanLabels walk (see
// podSubviews). Call it before Start; the view keeps them from then on,
// across Stop, Start and Reset.
func (r *Reflector) IndexPods() {
	r.bucket(spec.KindPod).pods = &podSubviews{}
}

// subviews returns the Pod bucket's sub-views; IndexPods must have been
// called.
func (r *Reflector) subviews() *podSubviews {
	b := r.views[spec.KindPod]
	if b == nil || b.pods == nil {
		panic("apiserver: the view keeps no pod sub-views (Reflector.IndexPods)")
	}
	return b.pods
}

// ForEachServing calls fn for every pod in namespace ns ("" = all) that is
// Active, Ready and has a PodIP, in key order, stopping early when fn returns
// false: ForEach over Pods filtered to the serving ones, without visiting the
// rest. The same contract as ForEach holds.
func (r *Reflector) ForEachServing(ns string, fn func(*spec.Pod) bool) {
	r.subviews().forEachServing(ns, fn)
}

// ForEachControlledBy calls fn for every pod in namespace ns ("" = all) whose
// ControllerOf has the given UID, in key order, stopping early when fn
// returns false: ForEach over Pods filtered to one controller's, without
// visiting the rest. The same contract as ForEach holds.
func (r *Reflector) ForEachControlledBy(ns, uid string, fn func(*spec.Pod) bool) {
	r.subviews().forEachControlledBy(ns, uid, fn)
}

// ForEachOrphanLabels calls fn once for each distinct label map (by
// identity, spec.SameMap) among the Active pods without a controller that
// ForEach(KindPod, ns) would visit, stopping early when fn returns false; ns
// is a namespace as spec.SplitNamespacedName returns it. A selector that
// matches none of the maps matches none of those orphans.
func (r *Reflector) ForEachOrphanLabels(ns string, fn func(labels map[string]string) bool) {
	r.subviews().forEachOrphanLabels(ns, fn)
}

// Len reports the number of objects of kind in the view.
func (r *Reflector) Len(kind spec.Kind) int {
	b := r.views[kind]
	if b == nil {
		return 0
	}
	return len(b.keys)
}

// Tracks reports whether the reflector mirrors the given kind. Consumers
// with occasional reads outside the mirrored set (e.g. the garbage
// collector resolving an arbitrary owner kind) fall back to a server read.
func (r *Reflector) Tracks(kind spec.Kind) bool {
	for _, k := range r.kinds {
		if k == kind {
			return true
		}
	}
	return false
}

// ResyncRepairs reports how many view entries resyncs had to repair — the
// observable trace of lost watch events.
func (r *Reflector) ResyncRepairs() int64 { return r.resyncRepairs }

// Resync reconciles the view against the server's index, kind by kind: the
// low-frequency safety net that turns a lost watch notification (crash,
// injected drop, tampered-undecodable event) from permanent staleness into
// bounded staleness. Entries that differ are repaired and re-announced to the
// consumer as synthetic events — Added for objects the view missed, Modified
// for revision drift, Deleted for objects the view should have dropped —
// in deterministic key order.
func (r *Reflector) Resync() {
	for _, kind := range r.kinds {
		r.resyncKind(kind)
	}
}

func (r *Reflector) resyncKind(kind spec.Kind) {
	b := r.bucket(kind)
	// Walk the server's sorted index against the sorted view in lockstep. A
	// view in step with the server repairs nothing and copies nothing.
	i := 0 // index into b.keys (stale view)
	var repaired []WatchEvent
	r.client.Range(kind, "", func(obj spec.Object) bool {
		key := obj.Meta().NamespacedName()
		for i < len(b.keys) && b.keys[i] < key {
			repaired = append(repaired, WatchEvent{Type: Deleted, Kind: kind, Object: b.objs[i]})
			i++
		}
		if i < len(b.keys) && b.keys[i] == key {
			if b.objs[i] != obj {
				repaired = append(repaired, WatchEvent{Type: Modified, Kind: kind, Object: obj})
			}
			i++
			return true
		}
		repaired = append(repaired, WatchEvent{Type: Added, Kind: kind, Object: obj})
		return true
	})
	for ; i < len(b.keys); i++ {
		repaired = append(repaired, WatchEvent{Type: Deleted, Kind: kind, Object: b.objs[i]})
	}
	r.resyncRepairs += int64(len(repaired))
	// Apply after the walk: apply mutates the bucket the walk indexes, and a
	// consumer's handler may write through the server whose index Range walks.
	for _, ev := range repaired {
		r.apply(ev)
	}
}
