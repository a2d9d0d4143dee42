package sim

import "time"

// Queue hands values to one handler a fixed delay after each is put, in put
// order. A Put draws the key, (now+delay, next sequence number), that a
// one-shot event would, and keeps it with the value; the queue holds one heap
// entry, its own event under its front value's key. The delay is fixed and
// the clock only moves forward, so the front value's key is the earliest the
// queue holds: the pop order is the one an event per value would give, at
// one heap entry per queue. Loop.Reset empties every queue made on the loop.
type Queue[T any] struct {
	loop  *Loop
	delay time.Duration
	fn    func(T)
	ev    event     // the front value's heap entry; fn is deliver, bound once
	vals  []item[T] // vals[head:] await delivery; the array is reused
	head  int
}

// item is one queued value under the key its Put drew.
type item[T any] struct {
	at  time.Duration
	seq uint64
	v   T
}

// NewQueue returns a queue on l that hands every value put to fn, delay
// after the Put (a negative delay counts as zero). The loop keeps the queue
// for as long as the loop lives, so build one per owner, when the owner is
// built.
func NewQueue[T any](l *Loop, delay time.Duration, fn func(T)) *Queue[T] {
	q := &Queue[T]{loop: l, delay: max(delay, 0), fn: fn}
	q.ev = event{loop: l, idx: -1, queue: true, fn: q.deliver}
	l.queues = append(l.queues, q)
	return q
}

// Put queues v for delivery after the queue's delay.
func (q *Queue[T]) Put(v T) {
	if q.head > 0 && len(q.vals) == cap(q.vals) {
		// Full, with delivered slots in front: a queue that never drains
		// slides its values down instead of growing the array forever.
		n := copy(q.vals, q.vals[q.head:])
		clear(q.vals[n:])
		q.vals, q.head = q.vals[:n], 0
	}
	l := q.loop
	it := item[T]{at: l.now + q.delay, seq: l.seq, v: v}
	l.seq++
	q.vals = append(q.vals, it)
	if len(q.vals)-q.head == 1 { // v is the front: the queue was empty
		l.pushKey(it.at, it.seq, &q.ev)
	}
}

// deliver hands the front value to the handler after putting the next
// value's key on the heap; a Put the handler makes queues behind the rest.
func (q *Queue[T]) deliver() {
	v := q.vals[q.head].v
	q.vals[q.head] = item[T]{} // release what v refers to
	q.head++
	if q.head == len(q.vals) {
		q.vals, q.head = q.vals[:0], 0
	} else {
		next := &q.vals[q.head]
		q.loop.pushKey(next.at, next.seq, &q.ev)
	}
	q.fn(v)
}

// behind counts the values waiting behind the front, which alone is on the
// heap.
func (q *Queue[T]) behind() int {
	return max(len(q.vals)-q.head-1, 0)
}

// reset drops every queued value; Loop.Reset has taken the queue's event off
// the heap.
func (q *Queue[T]) reset() {
	clear(q.vals)
	q.vals, q.head = q.vals[:0], 0
}
