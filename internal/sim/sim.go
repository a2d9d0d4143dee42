// Package sim provides a deterministic discrete-event scheduler used as the
// execution substrate for the whole simulated cluster.
//
// Every component of the orchestration system (store, apiserver, controllers,
// scheduler, kubelets, network) runs as callbacks on a single event loop with
// a virtual clock. An experiment that spans a minute of simulated time
// executes in well under a millisecond of wall time, and two runs with the
// same seed produce bit-identical event orders, which is what makes a
// ~7,500-experiment injection campaign tractable and reproducible.
//
// The scheduler is allocation-frugal: event structs are recycled on a
// per-loop free list (an experiment schedules some 1,400 to 9,400 events,
// and a campaign runs thousands of experiments), periodic timers rearm their
// own event instead of scheduling a fresh closure every tick, fixed-delay
// deliveries (store watch events, apiserver fan-out, election messages) ride
// a Queue that keeps one heap entry for its front value instead of an event
// per value, and a stopped timer leaves the heap at once.
package sim

import (
	"math/rand"
	"time"
)

// Epoch is the virtual wall-clock instant corresponding to virtual time zero.
// Timestamps stored in resource objects are derived from it.
var Epoch = time.Date(2024, time.April, 17, 0, 0, 0, 0, time.UTC)

// Loop is a deterministic discrete-event scheduler. The zero value is not
// usable; construct with NewLoop.
//
// Loop is not safe for concurrent use: all callbacks run on the goroutine
// that calls Run/RunUntil/Step, and may schedule further events.
type Loop struct {
	now time.Duration
	seq uint64
	// events is a 4-ary min-heap on (at, seq) — see pushKey, remove, up and
	// down. The key is a total order (seq is unique), so the pop order, and
	// with it every outcome, is independent of the heap's shape. Every event
	// on the heap records its slot, so a stopped timer is removed in place.
	events  []entry
	rng     *rand.Rand
	stopped bool

	executed int64
	budget   int64 // 0 = unlimited

	// free recycles event structs: an event is returned here after it fires
	// or is stopped, and reused by the next At call. Each recycle bumps the
	// event's generation, so stale Timer handles can never cancel an
	// unrelated reuse of the same struct.
	free []*event
	// queues holds every Queue made on the loop, for Reset to empty and
	// Pending to count.
	queues []interface {
		reset()
		behind() int
	}
}

// Timer is a handle to a scheduled callback. Stop cancels it. Timer is a
// small value (copyable, comparable to its zero value by Pending); the zero
// Timer is valid and behaves like an already-fired one.
type Timer struct {
	ev  *event
	gen uint32
}

// event is one scheduled callback. Events are pooled: gen distinguishes
// successive uses of the same struct, period > 0 marks a periodic (Every)
// event that rearms itself after each firing, and idx is the event's heap
// slot, or -1 while it is off the heap (running, or free). cancelled marks a
// periodic event stopped from inside its own callback, which Step then does
// not rearm. A Queue's own event has queue set and never goes to the free
// list.
type event struct {
	loop      *Loop
	fn        func()
	period    time.Duration
	gen       uint32
	idx       int32
	cancelled bool
	queue     bool
}

// entry is one heap slot. It carries its key by value, so a sift compares
// neighbouring slots without dereferencing an event per comparison: ~3 %
// more experiments per second at 500 nodes than a heap of bare pointers, for
// 16 more bytes a slot.
type entry struct {
	at  time.Duration
	seq uint64
	ev  *event
}

func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// valid reports whether t still refers to the scheduling it was created for
// (the underlying struct may have been recycled for a newer event).
func (t Timer) valid() bool {
	return t.ev != nil && t.ev.gen == t.gen
}

// Stop cancels the timer. It is safe to call on an already-fired or
// already-stopped timer (and on the zero Timer), and reports whether the
// call prevented the callback from firing again. A timer on the heap leaves
// it at once and its event is recycled; stopping a periodic timer from
// inside its own callback prevents the rearm.
func (t Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	ev := t.ev
	if ev.idx < 0 {
		ev.cancelled = true // running: Step must not rearm it
		return true
	}
	ev.loop.remove(int(ev.idx))
	ev.loop.recycle(ev)
	return true
}

// Pending reports whether the timer is still scheduled to fire (again, for
// periodic timers, even from inside their own callback). The zero Timer is
// not pending.
func (t Timer) Pending() bool {
	return t.valid() && !t.ev.cancelled && (t.ev.idx >= 0 || t.ev.period > 0)
}

// NewLoop returns a loop whose random source is seeded with seed.
func NewLoop(seed int64) *Loop {
	return &Loop{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time as an offset from the epoch.
func (l *Loop) Now() time.Duration { return l.now }

// Time returns the current virtual wall-clock time.
func (l *Loop) Time() time.Time { return Epoch.Add(l.now) }

// Rand returns the loop's deterministic random source.
func (l *Loop) Rand() *rand.Rand { return l.rng }

// SetEventBudget bounds the total number of events the loop will execute;
// once exhausted, Run/RunUntil stop executing callbacks and only advance the
// clock. A budget turns pathological feedback loops (e.g. uncontrolled
// replication churning at event speed) into a frozen — and classifiable —
// cluster instead of an unbounded computation, the simulation counterpart of
// the paper's fixed experiment duration. Zero means unlimited.
func (l *Loop) SetEventBudget(n int64) { l.budget = n }

// EventsExecuted reports how many events have run.
func (l *Loop) EventsExecuted() int64 { return l.executed }

// Resume positions a fresh loop at a snapshot instant: the clock jumps to
// now and the executed-event counter resumes from executed, so an event
// budget set afterwards leaves exactly the same headroom as a loop that
// actually replayed those events. Resume supports forking a bootstrapped
// cluster: the fork's loop continues the virtual timeline of the snapshot
// while drawing randomness from its own (per-experiment) seed. It must be
// called before any event is scheduled or executed on the loop.
func (l *Loop) Resume(now time.Duration, executed int64) {
	if l.executed != 0 || len(l.events) != 0 || l.seq != 0 {
		panic("sim: Resume called on a loop that already ran or has pending events")
	}
	l.now = now
	l.executed = executed
}

// Reset returns the loop to the state NewLoop left it in — no pending events,
// clock and counters at zero, no budget — without giving up its memory: every
// pending event goes back to the free list with its generation bumped, so
// Timer handles held by whoever scheduled them go stale instead of cancelling
// an unrelated later use of the struct, and every Queue made on the loop
// drops its values (its own event stays with it). The random stream is
// left where it is; Seed repositions it. Together with Seed and Resume this
// is how a cluster is rewound for its next experiment instead of being
// rebuilt.
func (l *Loop) Reset() {
	for i, e := range l.events {
		e.ev.idx = -1
		l.recycle(e.ev)
		l.events[i] = entry{}
	}
	l.events = l.events[:0]
	for _, q := range l.queues {
		q.reset()
	}
	l.now, l.seq, l.executed, l.budget = 0, 0, 0, 0
	l.stopped = false
}

// Seed re-seeds the loop's random source in place: the stream that follows is
// the one NewLoop(seed) starts with, without allocating a new 5 KB source.
func (l *Loop) Seed(seed int64) { l.rng.Seed(seed) }

// BudgetExhausted reports whether the event budget was consumed.
func (l *Loop) BudgetExhausted() bool { return l.budget > 0 && l.executed >= l.budget }

// alloc takes an event off the free list (or news one).
func (l *Loop) alloc(fn func()) *event {
	var ev *event
	if n := len(l.free); n > 0 {
		ev = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		ev = &event{loop: l}
	}
	ev.fn = fn
	return ev
}

// push queues ev at time at under the next sequence number.
func (l *Loop) push(at time.Duration, ev *event) {
	l.pushKey(at, l.seq, ev)
	l.seq++
}

// pushKey queues ev under a key drawn earlier (a Queue draws its values' keys
// when they are put): the new entry rises from a new last slot.
func (l *Loop) pushKey(at time.Duration, seq uint64, ev *event) {
	l.events = append(l.events, entry{})
	l.up(len(l.events)-1, entry{at: at, seq: seq, ev: ev})
}

// pop removes and returns the earliest entry of a non-empty heap.
func (l *Loop) pop() entry {
	top := l.events[0]
	l.remove(0)
	return top
}

// remove takes slot i out of the heap: the last entry fills it, rising or
// sinking to where it belongs.
func (l *Loop) remove(i int) {
	h := l.events
	h[i].ev.idx = -1
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	l.events = h[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(h[(i-1)/4]) {
		l.up(i, last)
	} else {
		l.down(i, last)
	}
}

// up places e at or above the hole at slot i: parents move down into the
// hole until one is not after e.
func (l *Loop) up(i int, e entry) {
	h := l.events
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.idx = int32(i)
		i = p
	}
	h[i] = e
	e.ev.idx = int32(i)
}

// down places e in the subtree whose root slot i is a hole: the earliest of
// up to four children moves up into the hole until none is before e.
func (l *Loop) down(i int, e entry) {
	h := l.events
	for {
		c := 4*i + 1
		if c >= len(h) {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < len(h); j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(e) {
			break
		}
		h[i] = h[m]
		h[i].ev.idx = int32(i)
		i = m
	}
	h[i] = e
	e.ev.idx = int32(i)
}

// recycle returns a fired or stopped event, off the heap, to the free list;
// a Queue keeps its own. The generation bump invalidates every Timer handle
// still pointing at it.
func (l *Loop) recycle(ev *event) {
	if ev.queue {
		return
	}
	ev.gen++
	ev.fn = nil
	ev.period = 0
	ev.cancelled = false
	l.free = append(l.free, ev)
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (l *Loop) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return l.At(l.now+d, fn)
}

// At schedules fn at the absolute virtual time t (clamped to now).
func (l *Loop) At(t time.Duration, fn func()) Timer {
	if t < l.now {
		t = l.now
	}
	ev := l.alloc(fn)
	l.push(t, ev)
	return Timer{ev: ev, gen: ev.gen}
}

// Every schedules fn to run every interval, starting one interval from now,
// until the returned Timer is stopped. The interval must be positive.
// Periodic events rearm themselves after each firing — no per-tick closure
// or event allocation — drawing a fresh sequence number after the callback
// returns, exactly as if the callback had rescheduled itself.
func (l *Loop) Every(interval time.Duration, fn func()) Timer {
	if interval <= 0 {
		interval = time.Nanosecond
	}
	t := l.After(interval, fn)
	t.ev.period = interval
	return t
}

// Step executes the next pending event, advancing the clock to its deadline.
// It reports whether an event was executed.
func (l *Loop) Step() bool {
	if l.BudgetExhausted() || len(l.events) == 0 {
		return false
	}
	e := l.pop()
	ev := e.ev
	l.now = e.at
	l.executed++
	ev.fn()
	if ev.period > 0 && !ev.cancelled {
		// Rearm in place: same struct, same generation (the Timer handle
		// stays live), next interval, fresh sequence number.
		l.push(l.now+ev.period, ev)
	} else {
		l.recycle(ev)
	}
	return true
}

// RunUntil executes all events scheduled at or before deadline, then advances
// the clock to deadline. Events scheduled by callbacks are executed too if
// they fall within the deadline. A Stop ends the run early, and the clock
// still lands on deadline.
func (l *Loop) RunUntil(deadline time.Duration) {
	if l.RunUntilStopped(deadline) && l.now < deadline {
		l.now = deadline
	}
}

// RunUntilStopped executes events scheduled at or before deadline, like
// RunUntil, but returns the moment Stop is called — without advancing the
// clock to the deadline. It reports whether it was stopped early.
//
// This is the wakeup primitive of the watch-driven readiness pipeline: a
// subscriber calls Stop from an event callback when its condition is met,
// and the caller resumes at the exact instant of that event instead of the
// next poll boundary. When the deadline passes (or the queue drains, or the
// event budget runs out) the clock lands on deadline, exactly as RunUntil.
func (l *Loop) RunUntilStopped(deadline time.Duration) bool {
	l.stopped = false
	for !l.BudgetExhausted() && len(l.events) > 0 {
		if l.events[0].at > deadline {
			break
		}
		l.Step()
		if l.stopped {
			return true
		}
	}
	if l.now < deadline {
		l.now = deadline
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
func (l *Loop) Run() {
	l.stopped = false
	for !l.stopped && l.Step() {
	}
}

// Stop makes the innermost Run/RunUntil return after the current callback.
func (l *Loop) Stop() { l.stopped = true }

// Pending reports the number of scheduled, uncancelled events, counting
// every value a Queue holds.
func (l *Loop) Pending() int {
	n := len(l.events)
	for _, q := range l.queues {
		n += q.behind()
	}
	return n
}
