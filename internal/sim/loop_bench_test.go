package sim

import (
	"testing"
	"time"
)

// The loop's two costs that do no simulation work, each beside the same 40
// periodic timers (periods 10-49 ms, the heartbeats and resyncs a cluster
// keeps on its heap): a timer that is stopped and re-armed before it fires,
// and a value through a fixed-delay Queue. Run with
// `go test -run '^$' -bench . -benchmem ./internal/sim`.

// besidePeriodics returns a loop carrying the 40 periodic timers.
func besidePeriodics() *Loop {
	l := NewLoop(1)
	noop := func() {}
	for i := range 40 {
		l.Every(time.Duration(10+i)*time.Millisecond, noop)
	}
	return l
}

// BenchmarkTimerChurn: one op stops one of 3 timers, re-arms it 150-300 ms
// out (an election timeout reset by a heartbeat) and runs the loop 1 ms on.
func BenchmarkTimerChurn(b *testing.B) {
	l := besidePeriodics()
	noop := func() {}
	var timers [3]Timer
	rearm := func(i int) {
		timers[i%3].Stop()
		timers[i%3] = l.After(150*time.Millisecond+time.Duration(l.Rand().Int63n(int64(150*time.Millisecond))), noop)
		l.RunUntil(l.Now() + time.Millisecond)
	}
	for i := range 1000 { // warm: the free list and the heap's array grown
		rearm(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rearm(i)
	}
}

// BenchmarkQueueBesideTimers: one op puts one value on a 2 ms Queue and runs
// the loop 100 µs on, so some 20 values wait at any time.
func BenchmarkQueueBesideTimers(b *testing.B) {
	l := besidePeriodics()
	n := 0
	q := NewQueue(l, 2*time.Millisecond, func(v int) { n += v })
	put := func() {
		q.Put(1)
		l.RunUntil(l.Now() + 100*time.Microsecond)
	}
	for range 1000 {
		put()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		put()
	}
	if n < b.N {
		b.Fatalf("delivered %d values in %d ops", n, b.N)
	}
}
