package apiserver

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

func newPodReflector(t *testing.T) (*Reflector, *Client, func(deadline time.Duration), *[]WatchEvent) {
	t.Helper()
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("reflector-test")
	var seen []WatchEvent
	r := NewReflector(loop, c, 0, func(ev WatchEvent) { seen = append(seen, ev) }, spec.KindPod)
	r.Start()
	return r, c, func(d time.Duration) { loop.RunUntil(loop.Now() + d) }, &seen
}

func TestReflectorMirrorsWatch(t *testing.T) {
	r, c, run, seen := newPodReflector(t)
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	run(time.Second)
	obj, ok := r.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if !ok {
		t.Fatal("view missing created pod")
	}
	if !obj.Meta().Sealed() {
		t.Fatal("view must hold the sealed cache instance")
	}
	if len(*seen) != 1 || (*seen)[0].Type != Added {
		t.Fatalf("events = %+v, want one Added", *seen)
	}
	if err := c.Delete(spec.KindPod, spec.DefaultNamespace, "web-1"); err != nil {
		t.Fatal(err)
	}
	run(time.Second)
	if _, ok := r.Get(spec.KindPod, spec.DefaultNamespace, "web-1"); ok {
		t.Fatal("view kept a deleted pod")
	}
	if r.Len(spec.KindPod) != 0 {
		t.Fatalf("Len = %d after delete", r.Len(spec.KindPod))
	}
}

// A resync that runs while a watch event is still in flight (committed,
// server cache updated, fan-out pending) must repair the view from the
// server's state, and the late event must apply idempotently afterwards.
func TestReflectorResyncOverlapsInFlightEvent(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("reflector-test")
	var seen []WatchEvent
	r := NewReflector(loop, c, 0, func(ev WatchEvent) { seen = append(seen, ev) }, spec.KindPod)
	r.Start()

	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	before := r.ResyncRepairs()

	// Commit an update, then advance the loop one event at a time until the
	// server cache holds the new revision while the reflector still holds
	// the old one — i.e. the fan-out delivery is still pending.
	obj, _ := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	upd := spec.CloneForWriteAs(obj.(*spec.Pod))
	upd.Spec.NodeName = "worker-0"
	if err := c.Update(upd); err != nil {
		t.Fatal(err)
	}
	inFlight := false
	for i := 0; i < 100; i++ {
		srvObj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
		viewObj, _ := r.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
		if err == nil && srvObj.(*spec.Pod).Spec.NodeName == "worker-0" &&
			viewObj.(*spec.Pod).Spec.NodeName == "" {
			inFlight = true
			break
		}
		if !loop.Step() {
			break
		}
	}
	if !inFlight {
		t.Fatal("could not catch the window with the fan-out pending")
	}

	// Resync in that window: the view must be repaired from the server even
	// though the live event has not arrived yet.
	r.Resync()
	if got := r.ResyncRepairs() - before; got != 1 {
		t.Fatalf("resync repaired %d entries, want 1", got)
	}
	viewObj, _ := r.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if viewObj.(*spec.Pod).Spec.NodeName != "worker-0" {
		t.Fatal("resync did not repair the stale entry")
	}

	// The in-flight event now arrives; applying it is idempotent.
	loop.RunUntil(loop.Now() + time.Second)
	viewObj, _ = r.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if viewObj.(*spec.Pod).Spec.NodeName != "worker-0" {
		t.Fatal("late watch event corrupted the repaired view")
	}
	// Both the synthetic repair and the live delivery are announced.
	mods := 0
	for _, ev := range seen {
		if ev.Type == Modified {
			mods++
		}
	}
	if mods != 2 {
		t.Fatalf("observed %d Modified events, want 2 (repair + live)", mods)
	}
}

// A notification lost on the watch channel leaves the view stale; the next
// resync re-list must repair it — the informer-staleness recovery path the
// watch-channel fault surface relies on.
func TestReflectorRecoversFromDroppedWatchEvent(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("reflector-test")
	drops := 0
	armed := true
	srv.SetWatchHook(func(m *Message) Action {
		if armed && m.Kind == spec.KindPod {
			armed = false
			drops++
			return Drop
		}
		return Pass
	})
	r := NewReflector(loop, c, 2*time.Second, nil, spec.KindPod)
	r.Start()

	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	if drops != 1 {
		t.Fatalf("watch hook dropped %d events, want 1", drops)
	}
	if _, ok := r.Get(spec.KindPod, spec.DefaultNamespace, "web-1"); ok {
		t.Fatal("view saw the pod although the notification was dropped")
	}
	// The server itself is not stale — only the subscribers are.
	if _, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1"); err != nil {
		t.Fatalf("server lost the object: %v", err)
	}

	// The periodic resync re-list repairs the view.
	loop.RunUntil(loop.Now() + 3*time.Second)
	if _, ok := r.Get(spec.KindPod, spec.DefaultNamespace, "web-1"); !ok {
		t.Fatal("resync did not recover the dropped notification")
	}
	if r.ResyncRepairs() == 0 {
		t.Fatal("recovery not accounted as a resync repair")
	}
}

// A tampered watch payload reaches subscribers as a private corrupted
// instance while the server cache keeps the truth; the resync then repairs
// the subscribers — watch-channel corruption is transient by architecture.
func TestWatchTamperIsInvisibleToServerAndRepairedByResync(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("reflector-test")
	tampered := false
	srv.SetWatchHook(func(m *Message) Action {
		if !tampered && m.Kind == spec.KindPod && len(m.Encoded()) > 0 {
			tampered = true
			obj := spec.New(m.Kind)
			if err := codecUnmarshal(m.Encoded(), obj); err != nil {
				t.Fatalf("decode watch payload: %v", err)
			}
			obj.(*spec.Pod).Spec.NodeName = "ghost-node"
			m.Data = mustMarshal(obj)
			m.Tampered = true
		}
		return Pass
	})
	r := NewReflector(loop, c, 2*time.Second, nil, spec.KindPod)
	r.Start()

	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	viewObj, ok := r.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if !ok {
		t.Fatal("view missing pod")
	}
	if viewObj.(*spec.Pod).Spec.NodeName != "ghost-node" {
		t.Fatal("subscriber did not observe the tampered payload")
	}
	if !viewObj.Meta().Sealed() {
		t.Fatal("tampered instance must be sealed before delivery")
	}
	srvObj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil || srvObj.(*spec.Pod).Spec.NodeName != "" {
		t.Fatal("tampering leaked into the server cache")
	}
	// Resync restores the subscribers' truth.
	loop.RunUntil(loop.Now() + 3*time.Second)
	viewObj, _ = r.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if viewObj.(*spec.Pod).Spec.NodeName != "ghost-node" && r.ResyncRepairs() == 0 {
		t.Fatal("repair happened but was not accounted")
	}
	if viewObj.(*spec.Pod).Spec.NodeName == "ghost-node" {
		t.Fatal("resync did not repair the corrupted view entry")
	}
}

// Stop detaches the view: later events must not mutate it.
func TestReflectorStopDetaches(t *testing.T) {
	r, c, run, _ := newPodReflector(t)
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	run(time.Second)
	r.Stop()
	if err := c.Create(testPod("web-2")); err != nil {
		t.Fatal(err)
	}
	run(time.Second)
	if r.Len(spec.KindPod) != 1 {
		t.Fatalf("stopped view tracked new events: Len = %d", r.Len(spec.KindPod))
	}
}

// A bucket appends a key past its last one without searching, which is what
// priming from the server's sorted list always does; the view it builds must
// be the sorted one every lookup searches — across namespaces whose names sort
// around the separator — and a restart must rebuild it in the buckets it
// already has. Keys that are already present, or arrive out of order, take
// the searching path and end up in the same place.
func TestReflectorPrimesInKeyOrder(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("reflector-test")
	names := []struct{ ns, name string }{
		{"a", "z"}, {"a-b", "m"}, {"a.b", "k"}, {"a", "b"}, {"ab", "a"}, {"default", "web"},
	}
	for _, n := range names {
		pod := testPod(n.name)
		pod.Metadata.Namespace = n.ns
		if err := c.Create(pod); err != nil {
			t.Fatalf("create %s/%s: %v", n.ns, n.name, err)
		}
	}
	loop.RunUntil(time.Second)

	r := NewReflector(loop, c, 0, nil, spec.KindPod)
	check := func(when string) {
		t.Helper()
		listed := c.List(spec.KindPod, "")
		var viewed []spec.Object
		r.ForEach(spec.KindPod, "", func(o spec.Object) bool { viewed = append(viewed, o); return true })
		if len(viewed) != len(listed) || len(listed) != len(names) {
			t.Fatalf("%s: view holds %d pods, the server lists %d", when, len(viewed), len(listed))
		}
		for i, o := range listed {
			if viewed[i] != o {
				t.Fatalf("%s: view position %d holds %s, the server lists %s", when, i, viewed[i].Meta().NamespacedName(), o.Meta().NamespacedName())
			}
			if got, ok := r.GetByKey(spec.KindPod, o.Meta().NamespacedName()); !ok || got != o {
				t.Fatalf("%s: lookup of %s misses: the view is not sorted", when, o.Meta().NamespacedName())
			}
		}
	}
	r.Start()
	check("primed")
	keys := &r.views[spec.KindPod].keys[0]
	r.Stop()
	r.Start()
	check("restarted")
	if &r.views[spec.KindPod].keys[0] != keys {
		t.Error("a restart primed into a new bucket instead of the one it had")
	}
	r.prime() // every key already present: the searching path, in place
	check("primed twice")
	b := r.views[spec.KindPod]
	first, obj := b.keys[0], b.objs[0]
	b.delete(first)
	b.set(first, obj) // before every other key: search and shift
	check("first key re-inserted")
}

// nsRange searches where the scan it replaced walked: over namespaces that
// prefix one another or continue with bytes below and above '/', at sizes on
// both sides of the linear stretch, both ends must land where the prefix scan
// lands, and ForEachFrom must visit exactly the keys from its start on, in
// order. The server's index holds the same objects under store keys
// ("/registry/<kind>/<ns>/<name>"): its list and Range must serve exactly the
// run the prefix scan finds there.
func TestNamespaceRangeMatchesPrefixScan(t *testing.T) {
	namespaces := []string{"a", "a-b", "a.b", "a0", "ab", "default", "default-x"}
	queries := append([]string{"", "b", "0", "defaul", "default-", "zz"}, namespaces...)
	const nameBytes = "-.09az"
	rng := rand.New(rand.NewSource(33))
	for round := 0; round < 200; round++ {
		b, sb := &sortedBucket{}, &sortedBucket{}
		for _, ns := range namespaces {
			for n := rng.Intn(41); n > 0; n-- {
				name := []byte{'p'}
				for l := rng.Intn(4); l >= 0; l-- {
					name = append(name, nameBytes[rng.Intn(len(nameBytes))])
				}
				pod := testPod(string(name))
				pod.Metadata.Namespace = ns
				b.set(ns+"/"+string(name), pod)
				sb.set(spec.Key(spec.KindPod, ns, string(name)), pod)
			}
		}
		srv := &Server{kindIndex: map[spec.Kind]*sortedBucket{spec.KindPod: sb}}
		for _, ns := range queries {
			wantI, wantJ := 0, len(b.keys)
			if ns != "" {
				// The prefix scan: every key below the namespace's prefix, then
				// every key that carries it.
				prefix := ns + "/"
				for wantI < len(b.keys) && b.keys[wantI] < prefix {
					wantI++
				}
				for wantJ = wantI; wantJ < len(b.keys) && strings.HasPrefix(b.keys[wantJ], prefix); wantJ++ {
				}
			}
			if i, j := b.nsRange(ns); i != wantI || j != wantJ {
				t.Fatalf("round %d, namespace %q over %d keys: nsRange = [%d, %d), the prefix scan finds [%d, %d)", round, ns, len(b.keys), i, j, wantI, wantJ)
			}

			var want []spec.Object
			prefix := "/registry/" + string(spec.KindPod) + "/" + ns
			if ns != "" {
				prefix += "/"
			}
			for k, key := range sb.keys {
				if strings.HasPrefix(key, prefix) {
					want = append(want, sb.objs[k])
				}
			}
			var ranged []spec.Object
			srv.rangeKind(spec.KindPod, ns, func(o spec.Object) bool {
				ranged = append(ranged, o)
				return true
			})
			if listed := srv.list(spec.KindPod, ns); !slices.Equal(listed, want) || !slices.Equal(ranged, want) {
				t.Fatalf("round %d, namespace %q over %d store keys: list serves %d objects and Range %d, the prefix scan finds %d", round, ns, len(sb.keys), len(listed), len(ranged), len(want))
			}
		}

		r := &Reflector{views: map[spec.Kind]*sortedBucket{spec.KindPod: b}}
		froms := []string{"", "a/", "a-b/p", "a0/", "default-x/pzz", "zz"}
		if len(b.keys) > 0 {
			k := b.keys[rng.Intn(len(b.keys))]
			froms = append(froms, k, k+"-", k[:len(k)-1])
		}
		for _, from := range froms {
			var want, got []string
			for _, k := range b.keys {
				if k >= from {
					want = append(want, k)
				}
			}
			r.ForEachFrom(spec.KindPod, from, func(o spec.Object) bool {
				got = append(got, o.Meta().NamespacedName())
				return true
			})
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: ForEachFrom(%q) visits %v, the keys from it on are %v", round, from, got, want)
			}
		}
	}
}
