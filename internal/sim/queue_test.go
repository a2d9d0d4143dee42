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
