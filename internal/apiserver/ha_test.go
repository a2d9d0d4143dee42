package apiserver

import (
	"sort"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// A reflector must ride out a server restart: the restart's re-list Addeds
// replay every object exactly once in store-key order, the view converges,
// and the next resync finds nothing to repair — no duplicate or reordered
// synthetic events.
func TestReflectorConvergesAcrossServerRestart(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("reflector-test")
	for _, name := range []string{"web-3", "web-1", "web-2"} {
		if err := c.Create(testPod(name)); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunUntil(loop.Now() + time.Second)

	var seen []WatchEvent
	r := NewReflector(loop, c, 0, func(ev WatchEvent) { seen = append(seen, ev) }, spec.KindPod)
	r.Start()
	if r.Len(spec.KindPod) != 3 {
		t.Fatalf("primed view holds %d pods, want 3", r.Len(spec.KindPod))
	}

	srv.Restart()
	loop.RunUntil(loop.Now() + time.Second)

	// The restart re-announced each pod exactly once, in key order.
	if len(seen) != 3 {
		t.Fatalf("restart replayed %d events, want 3 (one per pod): %+v", len(seen), seen)
	}
	var names []string
	for _, ev := range seen {
		if ev.Type != Added {
			t.Fatalf("restart replay emitted %v, want only Added", ev.Type)
		}
		names = append(names, ev.Object.Meta().Name)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("restart replay out of order: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			t.Fatalf("restart replay duplicated %q", names[i])
		}
	}

	// The view converged; a resync finds nothing to repair and emits no
	// synthetic events.
	seen = seen[:0]
	before := r.ResyncRepairs()
	r.Resync()
	if r.ResyncRepairs() != before {
		t.Fatalf("resync repaired %d entries after restart, want 0", r.ResyncRepairs()-before)
	}
	if len(seen) != 0 {
		t.Fatalf("resync after restart emitted %d synthetic events, want 0: %+v", len(seen), seen)
	}
	if r.Len(spec.KindPod) != 3 {
		t.Fatalf("view holds %d pods after restart+resync, want 3", r.Len(spec.KindPod))
	}
}

// A write that lands between the restart's re-list and the reflector's next
// resync must not be lost or double-applied.
func TestReflectorRestartThenWrite(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("reflector-test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	r := NewReflector(loop, c, 0, nil, spec.KindPod)
	r.Start()

	srv.Restart()
	if err := c.Create(testPod("web-2")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	r.Resync()
	if r.Len(spec.KindPod) != 2 {
		t.Fatalf("view holds %d pods, want 2", r.Len(spec.KindPod))
	}
	if _, ok := r.Get(spec.KindPod, spec.DefaultNamespace, "web-2"); !ok {
		t.Fatal("view missed the pod created right after the restart")
	}
}

// The HA read path: an apiserver restarting over a replicated backend
// re-lists through quorum reads, so at-rest corruption of its own replica is
// outvoted by the surviving majority instead of being served (§V-C1).
func TestRestartQuorumVerifiesAgainstCorruptReplica(t *testing.T) {
	loop := sim.NewLoop(11)
	rep := store.NewReplicated(loop, 3, nil)
	srv := NewControlPlane(loop, rep, nil, nil).Servers[0]
	c := srv.ClientFor("ha-test")
	if err := c.Create(testPod("quorum-pod")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)

	// Corrupt the pod's bytes at rest on the server's own replica.
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "quorum-pod")
	if !rep.Replica(0).CorruptAtRest(key, func(b []byte) []byte {
		flipped := append([]byte(nil), b...)
		flipped[len(flipped)-1] ^= 0xff
		return flipped
	}) {
		t.Fatal("CorruptAtRest failed")
	}
	srv.Restart()
	loop.RunUntil(loop.Now() + time.Second)

	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "quorum-pod")
	if err != nil {
		t.Fatalf("get after restart: %v", err)
	}
	if obj.Meta().Name != "quorum-pod" || len(obj.(*spec.Pod).Spec.Containers) != 1 {
		t.Fatal("restart served the corrupted minority value instead of the quorum value")
	}
}

// Client failover: a crashed endpoint's clients retry against the survivors
// and migrate their watches, which replay the server state as Added events.
func TestClientFailsOverOnServerDown(t *testing.T) {
	loop := sim.NewLoop(12)
	cp := NewControlPlane(loop, store.NewReplicated(loop, 3, nil), nil, nil)
	servers, eps := cp.Servers, cp.Endpoints
	c := eps.ClientFor("failover-test")

	if err := c.Create(testPod("pre-crash")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)

	var events []WatchEvent
	c.Watch(spec.KindPod, func(ev WatchEvent) { events = append(events, ev) })

	servers[0].SetDown(true)
	eps.NoteServerDown(0)
	// The eager migration replayed the surviving server's state.
	if len(events) != 1 || events[0].Type != Added || events[0].Object.Meta().Name != "pre-crash" {
		t.Fatalf("watch migration replay = %+v, want one Added for pre-crash", events)
	}

	// Requests keep working through the survivors.
	if err := c.Create(testPod("post-crash")); err != nil {
		t.Fatalf("create after crash: %v", err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "post-crash")
	if err != nil || obj.Meta().Name != "post-crash" {
		t.Fatalf("get after failover: %v", err)
	}
	// The watch is live on the new endpoint.
	foundLive := false
	for _, ev := range events[1:] {
		if ev.Object.Meta().Name == "post-crash" {
			foundLive = true
		}
	}
	if !foundLive {
		t.Fatal("migrated watch missed the post-crash create")
	}
}

// UID striding: creates admitted by different replicas draw from disjoint
// residue classes, so a failover can never mint a duplicate UID.
func TestAdmissionStrideKeepsUIDsDisjoint(t *testing.T) {
	loop := sim.NewLoop(13)
	servers := NewControlPlane(loop, store.NewReplicated(loop, 3, nil), nil, nil).Servers
	uids := make(map[string]int)
	for i, srv := range servers {
		c := srv.ClientFor("stride-test")
		for j := 0; j < 5; j++ {
			pod := testPod("stride-" + string(rune('a'+i)) + string(rune('0'+j)))
			if err := c.Create(pod); err != nil {
				t.Fatal(err)
			}
			loop.RunUntil(loop.Now() + 10*time.Millisecond)
		}
	}
	loop.RunUntil(loop.Now() + time.Second)
	admin := servers[0].ClientFor("observer")
	for _, obj := range admin.List(spec.KindPod, spec.DefaultNamespace) {
		uid := obj.Meta().UID
		if prev, dup := uids[uid]; dup {
			t.Fatalf("duplicate UID %q (first seen for pod %d)", uid, prev)
		}
		uids[uid] = 1
	}
	if len(uids) != 15 {
		t.Fatalf("%d distinct UIDs, want 15", len(uids))
	}
}
