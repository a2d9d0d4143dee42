package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestLoopOrdering(t *testing.T) {
	l := NewLoop(1)
	var got []int
	l.After(3*time.Second, func() { got = append(got, 3) })
	l.After(1*time.Second, func() { got = append(got, 1) })
	l.After(2*time.Second, func() { got = append(got, 2) })
	l.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if l.Now() != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", l.Now())
	}
}

func TestLoopFIFOAtSameInstant(t *testing.T) {
	l := NewLoop(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.After(time.Second, func() { got = append(got, i) })
	}
	l.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestLoopNestedScheduling(t *testing.T) {
	l := NewLoop(1)
	var fired int
	l.After(time.Second, func() {
		l.After(time.Second, func() { fired++ })
	})
	l.Run()
	if fired != 1 {
		t.Fatalf("nested event fired %d times, want 1", fired)
	}
	if l.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", l.Now())
	}
}

func TestTimerStop(t *testing.T) {
	l := NewLoop(1)
	fired := false
	tm := l.After(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	l.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	l := NewLoop(1)
	var fired, late bool
	l.After(time.Second, func() { fired = true })
	l.After(time.Minute, func() { late = true })
	l.RunUntil(10 * time.Second)
	if !fired {
		t.Fatal("event within deadline did not fire")
	}
	if late {
		t.Fatal("event past deadline fired")
	}
	if l.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want 10s", l.Now())
	}
	if l.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", l.Pending())
	}
}

func TestEvery(t *testing.T) {
	l := NewLoop(1)
	var n int
	var tick Timer
	tick = l.Every(time.Second, func() {
		n++
		if n == 5 {
			tick.Stop()
		}
	})
	l.RunUntil(time.Minute)
	if n != 5 {
		t.Fatalf("periodic fired %d times, want 5", n)
	}
}

func TestEveryStopBeforeFirstTick(t *testing.T) {
	l := NewLoop(1)
	var n int
	tick := l.Every(time.Second, func() { n++ })
	tick.Stop()
	l.RunUntil(10 * time.Second)
	if n != 0 {
		t.Fatalf("stopped periodic fired %d times, want 0", n)
	}
}

func TestAtClampsToNow(t *testing.T) {
	l := NewLoop(1)
	l.After(5*time.Second, func() {
		l.At(time.Second, func() {
			if l.Now() != 5*time.Second {
				t.Fatalf("past-scheduled event ran at %v, want clamped to 5s", l.Now())
			}
		})
	})
	l.Run()
}

func TestStopHaltsRun(t *testing.T) {
	l := NewLoop(1)
	var count int
	for i := 0; i < 10; i++ {
		l.After(time.Duration(i)*time.Second, func() {
			count++
			if count == 3 {
				l.Stop()
			}
		})
	}
	l.Run()
	if count != 3 {
		t.Fatalf("Run executed %d events after Stop, want 3", count)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		l := NewLoop(seed)
		var trace []int64
		for i := 0; i < 100; i++ {
			d := time.Duration(l.Rand().Intn(1000)) * time.Millisecond
			l.After(d, func() { trace = append(trace, int64(l.Now())) })
		}
		l.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any batch of non-negative delays, events fire in
// non-decreasing time order and the clock ends at the max delay.
func TestPropertyMonotoneClock(t *testing.T) {
	prop := func(delays []uint16) bool {
		l := NewLoop(7)
		var last time.Duration
		ok := true
		var max time.Duration
		for _, d := range delays {
			dd := time.Duration(d) * time.Millisecond
			if dd > max {
				max = dd
			}
			l.After(dd, func() {
				if l.Now() < last {
					ok = false
				}
				last = l.Now()
			})
		}
		l.Run()
		return ok && (len(delays) == 0 || l.Now() == max)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeEpoch(t *testing.T) {
	l := NewLoop(1)
	l.RunUntil(90 * time.Second)
	want := Epoch.Add(90 * time.Second)
	if !l.Time().Equal(want) {
		t.Fatalf("Time() = %v, want %v", l.Time(), want)
	}
}

// Regression: a stopped Every timer used to leave its cancelled event in the
// heap until the deadline popped it. Now tombstones are compacted as soon as
// they outnumber live events, so stopping periodic timers shrinks the heap
// without the loop ever running.
func TestStoppedPeriodicTimersAreCompacted(t *testing.T) {
	l := NewLoop(1)
	l.After(time.Hour, func() {}) // one live long-deadline event
	var timers []Timer
	for i := 0; i < 10; i++ {
		timers = append(timers, l.Every(time.Minute, func() {}))
	}
	for _, tm := range timers {
		if !tm.Stop() {
			t.Fatal("Stop() = false on a running periodic timer")
		}
	}
	if got := len(l.events); got != 1 {
		t.Fatalf("heap holds %d events after stopping all periodics, want 1 (tombstones not compacted)", got)
	}
	if got := l.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1", got)
	}
}

// A periodic timer's event is rearmed in place: no allocation per tick once
// the loop is warm.
func TestEveryRearmDoesNotAllocate(t *testing.T) {
	l := NewLoop(1)
	n := 0
	l.Every(time.Second, func() { n++ })
	l.RunUntil(time.Second) // warm: event struct allocated, first tick fired
	allocs := testing.AllocsPerRun(100, func() {
		l.RunUntil(l.Now() + time.Second)
	})
	if allocs > 0 {
		t.Fatalf("periodic rearm allocates %.1f objects/tick, want 0", allocs)
	}
	if n < 100 {
		t.Fatalf("ticked %d times, want >= 100", n)
	}
}

// Recycled events must not be cancellable through stale Timer handles: a
// handle from a fired one-shot keeps returning false even after its struct
// is reused for a new event.
func TestStaleTimerCannotCancelRecycledEvent(t *testing.T) {
	l := NewLoop(1)
	first := l.After(time.Second, func() {})
	l.RunUntil(2 * time.Second) // fires and recycles the event struct
	if first.Stop() {
		t.Fatal("Stop() = true on a fired timer")
	}
	fired := false
	l.After(time.Second, func() { fired = true }) // reuses the recycled struct
	if first.Stop() {
		t.Fatal("stale handle cancelled a recycled event")
	}
	if first.Pending() {
		t.Fatal("stale handle reports Pending")
	}
	l.RunUntil(l.Now() + 2*time.Second)
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// Stopping a periodic timer from inside its own callback prevents the rearm.
func TestEveryStopFromOwnCallback(t *testing.T) {
	l := NewLoop(1)
	n := 0
	var tick Timer
	tick = l.Every(time.Second, func() {
		n++
		if !tick.Stop() {
			t.Error("Stop() = false from inside the periodic callback")
		}
	})
	l.RunUntil(time.Minute)
	if n != 1 {
		t.Fatalf("periodic fired %d times after self-stop, want 1", n)
	}
	if l.Pending() != 0 {
		t.Fatalf("Pending() = %d after self-stop, want 0", l.Pending())
	}
}

// Determinism must survive pooling: interleaved one-shot and periodic
// scheduling with stops produces the identical trace run-to-run.
func TestDeterminismWithPoolingAndPeriodics(t *testing.T) {
	run := func() []int64 {
		l := NewLoop(99)
		var trace []int64
		var tickers []Timer
		for i := 0; i < 20; i++ {
			i := i
			tickers = append(tickers, l.Every(time.Duration(50+i)*time.Millisecond, func() {
				trace = append(trace, int64(i)<<32|int64(l.Now()/time.Millisecond))
			}))
		}
		for i := 0; i < 200; i++ {
			d := time.Duration(l.Rand().Intn(2000)) * time.Millisecond
			l.After(d, func() { trace = append(trace, int64(l.Now())) })
		}
		l.After(time.Second, func() {
			for _, tm := range tickers[:10] {
				tm.Stop()
			}
		})
		l.RunUntil(3 * time.Second)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

// RunUntilStopped is the watch-driven wakeup primitive: Stop from a callback
// returns control at the exact event instant, without warping the clock to
// the deadline; an undisturbed run behaves exactly like RunUntil.
func TestRunUntilStopped(t *testing.T) {
	l := NewLoop(1)
	fired := time.Duration(-1)
	l.After(300*time.Millisecond, func() {
		fired = l.Now()
		l.Stop()
	})
	l.After(700*time.Millisecond, func() {
		t.Fatal("event past the stop point must not run in this pass")
	})
	if !l.RunUntilStopped(10 * time.Second) {
		t.Fatal("RunUntilStopped did not report the stop")
	}
	if fired != 300*time.Millisecond {
		t.Fatalf("callback at %v, want 300ms", fired)
	}
	if l.Now() != 300*time.Millisecond {
		t.Fatalf("clock advanced to %v on stop, want the event instant", l.Now())
	}

	// Without a Stop the deadline semantics match RunUntil: remaining events
	// execute and the clock lands on the deadline.
	l2 := NewLoop(1)
	ran := 0
	l2.After(time.Second, func() { ran++ })
	if l2.RunUntilStopped(5 * time.Second) {
		t.Fatal("nothing called Stop")
	}
	if ran != 1 || l2.Now() != 5*time.Second {
		t.Fatalf("ran=%d now=%v, want 1 event and clock at deadline", ran, l2.Now())
	}
}

// A reset loop is indistinguishable from a new one of the same seed: nothing
// pending, the clock and the counters at zero, the same random stream — and
// every Timer of its earlier life is stale, so stopping one cannot cancel an
// event that reuses its struct. It gets there without allocating.
func TestResetIsANewLoopOnOldMemory(t *testing.T) {
	l := NewLoop(7)
	l.SetEventBudget(1000)
	fired := 0
	var stale []Timer
	for i := 0; i < 50; i++ {
		stale = append(stale, l.After(time.Duration(i)*time.Second, func() { fired++ }))
	}
	stale = append(stale, l.Every(time.Second, func() { fired++ }))
	l.Rand().Int63()
	l.RunUntil(10 * time.Second)
	before := fired

	l.Reset()
	l.Seed(42)
	if l.Pending() != 0 || l.Now() != 0 || l.EventsExecuted() != 0 || l.BudgetExhausted() {
		t.Fatalf("after Reset: pending=%d now=%v executed=%d", l.Pending(), l.Now(), l.EventsExecuted())
	}
	l.Resume(3*time.Second, 17) // panics unless the loop counts as untouched
	fresh := NewLoop(42)
	for i := 0; i < 1000; i++ {
		if a, b := l.Rand().Int63(), fresh.Rand().Int63(); a != b {
			t.Fatalf("draw %d after Seed(42): %d, a new loop draws %d", i, a, b)
		}
	}

	survivor := l.After(time.Second, func() { fired += 100 })
	for _, tm := range stale {
		if tm.Pending() || tm.Stop() {
			t.Fatal("a Timer from before the Reset is still live")
		}
	}
	l.RunUntil(time.Minute)
	if fired != before+100 || survivor.Pending() {
		t.Fatalf("fired=%d, want %d: events from before the Reset ran, or a stale Stop cancelled the new one", fired, before+100)
	}

	noop := func() {}
	if allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 50; i++ {
			l.After(time.Second, noop)
		}
		l.Reset()
		l.Seed(1)
	}); allocs != 0 {
		t.Errorf("schedule + Reset + Seed allocates %.0f times, want 0", allocs)
	}
}
