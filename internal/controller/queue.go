package controller

import (
	"sort"
	"time"

	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// queue is a deduplicating dirty-key work queue: keys added while a drain is
// pending are coalesced, mirroring the rate-limited work queues of the real
// controller manager.
type queue struct {
	loop    *sim.Loop
	delay   time.Duration
	handler func(key string)
	// drainFn is q.drain bound once in newQueue: a method value handed to
	// loop.After allocates on every scheduled drain.
	drainFn func()

	dirty     map[string]bool
	scheduled bool
	stopped   bool
	// scratch is the reusable key buffer drains sort into; a drain fires every
	// syncDelay under load, and reallocating the map and slice each time was
	// measurable at campaign scale.
	scratch []string
}

func newQueue(loop *sim.Loop, delay time.Duration, handler func(key string)) *queue {
	q := &queue{loop: loop, delay: delay, handler: handler, dirty: make(map[string]bool)}
	q.drainFn = q.drain
	return q
}

// add marks a key dirty and schedules a drain.
func (q *queue) add(key string) {
	if q.stopped {
		return
	}
	q.dirty[key] = true
	if !q.scheduled {
		q.scheduled = true
		q.loop.After(q.delay, q.drainFn)
	}
}

// addAfter marks a key dirty after an extra delay (retry backoff).
func (q *queue) addAfter(key string, d time.Duration) {
	q.loop.After(d, func() { q.add(key) })
}

func (q *queue) drain() {
	q.scheduled = false
	if q.stopped || len(q.dirty) == 0 {
		return
	}
	keys := q.scratch[:0]
	for k := range q.dirty {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	clear(q.dirty)
	q.scratch = keys
	// Handlers may re-add keys (retries, follow-up syncs); those land in the
	// cleared dirty map and schedule their own drain, never in this pass.
	for _, k := range keys {
		if q.stopped {
			return
		}
		q.handler(k)
	}
}

// stop drops pending work and refuses new keys.
func (q *queue) stop() {
	q.stopped = true
	clear(q.dirty)
}

// start re-enables a stopped queue.
func (q *queue) start() { q.stopped = false }

// reset returns the queue to the state newQueue left it in; the drain it may
// have scheduled went with the loop's events.
func (q *queue) reset() {
	q.scheduled, q.stopped = false, false
	clear(q.dirty)
	q.scratch = emptied(q.scratch)
}

// keyed is the skeleton of a controller that syncs one object of kind per
// queued key — deployment, ReplicaSet, DaemonSet, endpoints (kind Service):
// its queue runs while the manager leads, and a resync enqueues every object
// of kind in the views.
type keyed struct {
	m    *Manager
	q    *queue
	kind spec.Kind
}

func newKeyed(m *Manager, kind spec.Kind, sync func(key string)) keyed {
	return keyed{m: m, q: newQueue(m.loop, syncDelay, sync), kind: kind}
}

func (k *keyed) start() { k.q.start() }
func (k *keyed) stop()  { k.q.stop() }

func (k *keyed) resync() {
	k.m.views.ForEach(k.kind, "", func(o spec.Object) bool {
		k.q.add(objKey(o))
		return true
	})
}

// emptied returns s at length zero with every element of its array zeroed —
// past its old length too, where longer earlier uses left references behind —
// for a scratch buffer that is kept but must hold nothing.
func emptied[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}
