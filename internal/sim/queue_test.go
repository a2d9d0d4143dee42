package sim

import (
	"reflect"
	"testing"
	"time"
)

// Loop.Reset empties every queue made on the loop: what was queued before it
// is never delivered, and a value put after it is, alone.
func TestLoopResetDropsQueuedValues(t *testing.T) {
	l := NewLoop(1)
	var got []string
	q := NewQueue(l, time.Millisecond, func(v string) { got = append(got, v) })
	other := NewQueue(l, 0, func(v string) { got = append(got, "other "+v) })
	q.Put("before")
	other.Put("before")
	l.Reset()
	if len(q.vals) != 0 || len(other.vals) != 0 {
		t.Fatalf("after Reset the queues hold %d and %d values, want none", len(q.vals), len(other.vals))
	}
	q.Put("after")
	l.RunUntil(time.Second)
	if want := []string{"after"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %q, want %q", got, want)
	}
}

// A warm queue delivers without allocating: the loop event is pooled and the
// callback bound once, so a value costs no closure.
func TestQueueDeliversWithoutAllocating(t *testing.T) {
	l := NewLoop(1)
	n := 0
	q := NewQueue(l, time.Millisecond, func(v int) { n += v })
	put := func() {
		for range 8 {
			q.Put(1)
		}
		l.RunUntil(l.Now() + time.Second)
	}
	put() // warm: event structs and the value array allocated
	if allocs := testing.AllocsPerRun(100, put); allocs != 0 {
		t.Fatalf("a warm queue allocates %.1f times per 8 values, want 0", allocs)
	}
	if n != 102*8 { // the warm-up, AllocsPerRun's own and 100 measured
		t.Fatalf("delivered %d values, want %d", n, 102*8)
	}
}

// Loop.Reset while a queue's front value is on the heap takes the queue's
// event off it but never puts it on the free list: no later timer gets it,
// and the queue still delivers.
func TestResetKeepsTheQueuesEvent(t *testing.T) {
	l := NewLoop(1)
	var got []int
	q := NewQueue(l, time.Millisecond, func(v int) { got = append(got, v) })
	q.Put(1)
	q.Put(2)
	l.Reset()
	noop := func() {}
	for i := range 1000 {
		if tm := l.After(time.Duration(i)*time.Microsecond, noop); tm.ev == &q.ev {
			t.Fatalf("After call %d got the queue's event", i)
		}
	}
	q.Put(3)
	l.RunUntil(time.Second)
	if want := []int{3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}

// A queue that never drains keeps the array it grew to the backlog, holds no
// delivered value, and still delivers in put order.
func TestQueueThatNeverDrainsKeepsItsArray(t *testing.T) {
	l := NewLoop(1)
	next := 0
	q := NewQueue(l, 2*time.Millisecond, func(v *int) {
		if *v != next {
			t.Fatalf("delivered %d, want %d", *v, next)
		}
		next++
	})
	for i := range 10_000 {
		v := i
		q.Put(&v)
		l.RunUntil(l.Now() + 100*time.Microsecond) // some 20 values wait
		for j, it := range q.vals[:cap(q.vals)] {
			if (j < q.head || j >= len(q.vals)) && it.v != nil {
				t.Fatalf("after put %d: slot %d outside the waiting values still holds %d", i, j, *it.v)
			}
		}
	}
	if next < 9_900 || cap(q.vals) > 64 {
		t.Fatalf("delivered %d values through an array of %d slots, want about 10,000 through at most 64", next, cap(q.vals))
	}
}
