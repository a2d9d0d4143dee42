package apiserver

import (
	"reflect"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// Cancelling n watches back to back — a cluster shutting down its kubelets —
// compacts the registration list O(log n) times, not n times, and the
// survivors still hear the next event in registration order.
func TestCancelStormSweepsLogarithmically(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("test")
	const n = 500
	var heard []int
	var cancels []func()
	for i := 0; i < n+5; i++ {
		cancel := c.Watch(spec.KindPod, func(WatchEvent) { heard = append(heard, i) })
		if i%100 != 50 { // five survivors, spread over the list
			cancels = append(cancels, cancel)
		}
	}
	sweeps, size := 0, len(srv.watchers)
	for _, cancel := range cancels {
		cancel()
		cancel() // idempotent
		if len(srv.watchers) != size {
			sweeps, size = sweeps+1, len(srv.watchers)
		}
	}
	if sweeps == 0 || sweeps > 10 { // log2(500) ≈ 9
		t.Errorf("%d cancels swept the watcher list %d times, want 1 to 10", len(cancels), sweeps)
	}
	if size >= 2*5+1 {
		t.Errorf("%d registrations left for 5 live watchers: the sweep fell behind", size)
	}

	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	if want := []int{50, 150, 250, 350, 450}; !reflect.DeepEqual(heard, want) {
		t.Fatalf("event reached watchers %v, want %v in that order", heard, want)
	}
}
