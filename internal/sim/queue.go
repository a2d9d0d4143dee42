package sim

import "time"

// Queue hands values to one handler a fixed delay after each is put, in put
// order: one pooled loop event per value and no closure. The delay is fixed
// and the clock only moves forward, so the queue's events fire in put order
// and the value at the front is always the one whose event fires. Loop.Reset
// empties every queue made on the loop, with the events that would have
// delivered its values.
type Queue[T any] struct {
	loop  *Loop
	delay time.Duration
	fn    func(T)
	fire  func() // deliver, bound once
	vals  []T    // vals[head:] await delivery; the array is reused once drained
	head  int
}

// NewQueue returns a queue on l that hands every value put to fn, delay
// after the Put. The loop keeps the queue for as long as the loop lives, so
// build one per owner, when the owner is built.
func NewQueue[T any](l *Loop, delay time.Duration, fn func(T)) *Queue[T] {
	q := &Queue[T]{loop: l, delay: delay, fn: fn}
	q.fire = q.deliver
	l.queues = append(l.queues, q)
	return q
}

// Put queues v for delivery after the queue's delay.
func (q *Queue[T]) Put(v T) {
	q.vals = append(q.vals, v)
	q.loop.After(q.delay, q.fire)
}

// deliver hands the front value to the handler; a Put the handler makes
// queues behind the rest.
func (q *Queue[T]) deliver() {
	v := q.vals[q.head]
	var zero T
	q.vals[q.head] = zero // release what v refers to
	q.head++
	if q.head == len(q.vals) {
		q.vals, q.head = q.vals[:0], 0
	}
	q.fn(v)
}

// reset drops every queued value.
func (q *Queue[T]) reset() {
	clear(q.vals)
	q.vals, q.head = q.vals[:0], 0
}
