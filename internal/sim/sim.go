// Package sim provides a deterministic discrete-event scheduler used as the
// execution substrate for the whole simulated cluster.
//
// Every component of the orchestration system (store, apiserver, controllers,
// scheduler, kubelets, network) runs as callbacks on a single event loop with
// a virtual clock. An experiment that spans a minute of simulated time
// executes in well under a millisecond of wall time, and two runs with the
// same seed produce bit-identical event orders, which is what makes a
// ~9,000-experiment injection campaign tractable and reproducible.
//
// The scheduler is allocation-frugal: event structs are recycled on a
// per-loop free list (a campaign schedules hundreds of thousands of events
// per experiment), periodic timers rearm their own event instead of
// scheduling a fresh closure every tick, and cancelled events are compacted
// out of the heap lazily once they outnumber the live ones.
package sim

import (
	"container/heap"
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
	now     time.Duration
	seq     uint64
	events  eventHeap
	rng     *rand.Rand
	stopped bool

	executed int64
	budget   int64 // 0 = unlimited

	// free recycles event structs: an event is returned here after it fires
	// (or is compacted away as a tombstone) and reused by the next At call.
	// Each recycle bumps the event's generation, so stale Timer handles can
	// never cancel an unrelated reuse of the same struct.
	free []*event
	// cancelled counts tombstones currently sitting in the heap. Once they
	// outnumber the live events, compact sweeps them out in one pass instead
	// of letting each wait for its deadline to pop it.
	cancelled int
}

// Timer is a handle to a scheduled callback. Stop cancels it. Timer is a
// small value (copyable, comparable to its zero value by Pending); the zero
// Timer is valid and behaves like an already-fired one.
type Timer struct {
	ev  *event
	gen uint32
}

// event is one heap entry. Events are pooled: gen distinguishes successive
// uses of the same struct, period > 0 marks a periodic (Every) event that
// rearms itself after each firing, and index is the heap position (-1 while
// popped or free).
type event struct {
	loop      *Loop
	at        time.Duration
	seq       uint64
	fn        func()
	period    time.Duration
	gen       uint32
	cancelled bool
	fired     bool
	index     int
}

// valid reports whether t still refers to the scheduling it was created for
// (the underlying struct may have been recycled for a newer event).
func (t Timer) valid() bool {
	return t.ev != nil && t.ev.gen == t.gen
}

// Stop cancels the timer. It is safe to call on an already-fired or
// already-stopped timer (and on the zero Timer), and reports whether the
// call prevented the callback from firing again. Stopping a periodic timer
// from inside its own callback prevents the rearm.
func (t Timer) Stop() bool {
	if !t.valid() || t.ev.cancelled {
		return false
	}
	ev := t.ev
	if ev.period == 0 && ev.fired {
		return false
	}
	ev.cancelled = true
	if ev.index >= 0 {
		// Tombstone in the heap: count it and compact when the dead outweigh
		// the living (a stopped Every timer used to linger until its next
		// deadline popped it).
		l := ev.loop
		l.cancelled++
		if l.cancelled*2 >= len(l.events) {
			l.compact()
		}
	}
	return true
}

// Pending reports whether the timer is still scheduled to fire (again, for
// periodic timers). The zero Timer is not pending.
func (t Timer) Pending() bool {
	if !t.valid() || t.ev.cancelled {
		return false
	}
	if t.ev.period > 0 {
		return true
	}
	return !t.ev.fired
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
// an unrelated later use of the struct. The random stream is left where it
// is; Seed repositions it. Together with Seed and Resume this is how a
// cluster is rewound for its next experiment instead of being rebuilt.
func (l *Loop) Reset() {
	for i, ev := range l.events {
		l.recycle(ev)
		l.events[i] = nil
	}
	l.events = l.events[:0]
	l.now, l.seq, l.executed, l.budget = 0, 0, 0, 0
	l.cancelled = 0
	l.stopped = false
}

// Seed re-seeds the loop's random source in place: the stream that follows is
// the one NewLoop(seed) starts with, without allocating a new 5 KB source.
func (l *Loop) Seed(seed int64) { l.rng.Seed(seed) }

// BudgetExhausted reports whether the event budget was consumed.
func (l *Loop) BudgetExhausted() bool { return l.budget > 0 && l.executed >= l.budget }

// alloc takes an event off the free list (or news one) and stamps it with
// the next sequence number.
func (l *Loop) alloc(at time.Duration, fn func()) *event {
	var ev *event
	if n := len(l.free); n > 0 {
		ev = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		ev = &event{loop: l}
	}
	ev.at = at
	ev.seq = l.seq
	ev.fn = fn
	l.seq++
	return ev
}

// recycle returns a popped (or compacted) event to the free list. The
// generation bump invalidates every Timer handle still pointing at it.
func (l *Loop) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.period = 0
	ev.cancelled = false
	ev.fired = false
	ev.index = -1
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
	ev := l.alloc(t, fn)
	heap.Push(&l.events, ev)
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
	if l.BudgetExhausted() {
		return false
	}
	for l.events.Len() > 0 {
		ev := heap.Pop(&l.events).(*event)
		if ev.cancelled {
			l.cancelled--
			l.recycle(ev)
			continue
		}
		l.now = ev.at
		ev.fired = true
		l.executed++
		ev.fn()
		if ev.period > 0 && !ev.cancelled {
			// Rearm in place: same struct, same generation (the Timer handle
			// stays live), next interval, fresh sequence number.
			ev.at = l.now + ev.period
			ev.seq = l.seq
			l.seq++
			ev.fired = false
			heap.Push(&l.events, ev)
		} else {
			l.recycle(ev)
		}
		return true
	}
	return false
}

// RunUntil executes all events scheduled at or before deadline, then advances
// the clock to deadline. Events scheduled by callbacks are executed too if
// they fall within the deadline.
func (l *Loop) RunUntil(deadline time.Duration) {
	l.stopped = false
	for !l.stopped && !l.BudgetExhausted() && l.events.Len() > 0 {
		ev := l.events[0]
		if ev.cancelled {
			heap.Pop(&l.events)
			l.cancelled--
			l.recycle(ev)
			continue
		}
		if ev.at > deadline {
			break
		}
		l.Step()
	}
	if l.now < deadline {
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
	for !l.BudgetExhausted() && l.events.Len() > 0 {
		ev := l.events[0]
		if ev.cancelled {
			heap.Pop(&l.events)
			l.cancelled--
			l.recycle(ev)
			continue
		}
		if ev.at > deadline {
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

// Pending reports the number of scheduled, uncancelled events.
func (l *Loop) Pending() int { return len(l.events) - l.cancelled }

// compact sweeps cancelled events out of the heap in one pass and restores
// the heap invariant. Ordering is untouched: heap order is fully determined
// by (at, seq), so re-heapifying the survivors yields the same pop order.
func (l *Loop) compact() {
	live := l.events[:0]
	for _, ev := range l.events {
		if ev.cancelled {
			l.recycle(ev)
		} else {
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(l.events); i++ {
		l.events[i] = nil
	}
	l.events = live
	l.cancelled = 0
	heap.Init(&l.events)
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
