package apiserver

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// indexed lists the watchers srv's indexes hold, once per index entry.
func indexed(srv *Server) []*watcher {
	var out []*watcher
	for _, ws := range srv.watcherIdx {
		out = append(out, ws...)
	}
	for _, idx := range []posIndex{srv.byNode, srv.byUID} {
		for _, p := range idx {
			out = p.appendBelow(out, srv.nextSeq)
		}
	}
	return out
}

// Cancelling n watches back to back — a cluster shutting down its kubelets —
// takes each watcher out of every index at once (cancelling twice is a
// no-op), so exactly the live registrations stay indexed, and the survivors
// still hear the next event in registration order.
func TestCancelStormLeavesOnlyTheLive(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("test")
	const n = 500
	var heard []int
	var cancels []func()
	for i := 0; i < n+5; i++ {
		fn := func(WatchEvent) { heard = append(heard, i) }
		survivor := i%100 == 50 // five, spread over the registrations
		var cancel func()
		if i%2 == 1 || (survivor && i/100%2 == 1) {
			// Scoped: indexed under its node and its claim.
			scope := &PodScope{Node: "n0"}
			scope.Claim(fmt.Sprintf("uid-%d", i))
			cancel = c.WatchPods(scope, fn)
		} else {
			cancel = c.Watch(spec.KindPod, fn)
		}
		if !survivor {
			cancels = append(cancels, cancel)
		}
	}
	for _, cancel := range cancels {
		cancel()
		cancel()
	}
	live := map[*watcher]bool{}
	for _, w := range indexed(srv) {
		if w.cancelled {
			t.Errorf("a cancelled watcher (registration %d) is still indexed", w.seq)
		}
		live[w] = true
	}
	if len(live) != 5 || srv.live != 5 || len(srv.byUID) != 2 {
		t.Errorf("%d cancels of %d registrations left %d watchers indexed (%d counted live, %d claims), want 5 (5, 2)",
			len(cancels), n+5, len(live), srv.live, len(srv.byUID))
	}

	pod := testPod("web-1")
	pod.Spec.NodeName = "n0"
	if err := c.Create(pod); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	if want := []int{50, 150, 250, 350, 450}; !reflect.DeepEqual(heard, want) {
		t.Fatalf("event reached watchers %v, want %v in that order", heard, want)
	}
}
