package apiserver

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// The scoped pod watch delivers a pod event to exactly the scoped watchers
// that answer for the node the delivered object names or hold a claim on its
// UID, in registration order, each once. The fixture below holds the server to
// that with an oracle: an unscoped pod watcher registered before every scoped
// one, so it hears every delivered event first and writes down — from the
// test's own record of who claimed what, not from the scopes — who must hear
// it next.

type heard struct {
	watcher int // index into scopedFixture.scopes; -1 for the oracle
	ev      WatchEvent
	expect  []int // the oracle's entry: who is to hear ev after it
}

type scopedFixture struct {
	t   *testing.T
	cp  *controlPlane
	eps *Endpoints

	admin     *Client
	scopes    []*PodScope
	claims    []map[string]bool // the test's own record of every scope's claims
	cancels   []func()
	cancelled []bool
	// lateFrom is the first scoped watcher registered after the event in flight
	// was dispatched (-1: none): it and its successors must not hear it.
	lateFrom int

	log     []heard
	onHeard func(i int, ev WatchEvent) // run inside scoped watcher i's callback
	// replayed, when non-nil, diverts scoped deliveries: a failover replays to
	// one watch at a time, outside any fan-out.
	replayed map[int][]string
}

func newScopedFixture(t *testing.T, replicas int) *scopedFixture {
	h := &scopedFixture{t: t, cp: newControlPlane(t, replicas), lateFrom: -1}
	h.eps = NewEndpoints(h.cp.loop, h.cp.servers...)
	h.admin = h.client("admin")
	h.client("oracle").Watch(spec.KindPod, h.oracle)
	return h
}

func (h *scopedFixture) client(identity string) *Client { return h.eps.ClientFor(identity) }

// active is the server the clients are homed on.
func (h *scopedFixture) active() *Server { return h.admin.srv }

func (h *scopedFixture) oracle(ev WatchEvent) {
	if h.replayed != nil {
		return
	}
	h.log = append(h.log, heard{watcher: -1, ev: ev, expect: h.interested(ev.Object.(*spec.Pod), true)})
}

// interested lists, in registration order, the scoped watchers whose node the
// pod names or who claimed its UID.
func (h *scopedFixture) interested(pod *spec.Pod, inFlight bool) []int {
	out := []int{}
	for i, scope := range h.scopes {
		if h.cancelled[i] || (inFlight && h.lateFrom >= 0 && i >= h.lateFrom) {
			continue
		}
		if scope.Node == pod.Spec.NodeName || h.claims[i][pod.Metadata.UID] {
			out = append(out, i)
		}
	}
	return out
}

// addScoped registers a scoped watcher for node, through a client of its own
// as a kubelet would, and returns its index.
func (h *scopedFixture) addScoped(node string) int {
	i := len(h.scopes)
	h.scopes = append(h.scopes, &PodScope{Node: node})
	h.claims = append(h.claims, map[string]bool{})
	h.cancels = append(h.cancels, nil)
	h.cancelled = append(h.cancelled, false)
	h.register(i)
	return i
}

func (h *scopedFixture) register(i int) {
	h.cancelled[i] = false
	h.cancels[i] = h.client(fmt.Sprintf("kubelet-%d", i)).WatchPods(h.scopes[i], func(ev WatchEvent) {
		if h.replayed != nil {
			h.replayed[i] = append(h.replayed[i], ev.Object.Meta().Name)
			return
		}
		h.log = append(h.log, heard{watcher: i, ev: ev})
		if h.onHeard != nil {
			h.onHeard(i, ev)
		}
	})
}

func (h *scopedFixture) cancel(i int) {
	h.cancels[i]()
	h.cancelled[i] = true
}

func (h *scopedFixture) claim(i int, uid string) {
	h.scopes[i].Claim(uid)
	h.claims[i][uid] = true
}

func (h *scopedFixture) release(i int, uid string) {
	h.scopes[i].Release(uid)
	delete(h.claims[i], uid)
}

// step runs action, lets its events be delivered, and holds every one of them
// to the oracle's list; want is, per delivered event, the scoped watchers the
// script expects to have heard it, so that a fixture that expected nothing of
// anybody would not pass.
func (h *scopedFixture) step(name string, action func(), want ...[]int) {
	h.t.Helper()
	action()
	h.cp.settle()
	var got [][]int
	for k := 0; k < len(h.log); {
		first := h.log[k]
		if first.watcher != -1 {
			h.t.Fatalf("%s: scoped watcher %d heard %s before the oracle did", name, first.watcher, first.ev.Object.Meta().Name)
		}
		hearers := []int{}
		for k++; k < len(h.log) && h.log[k].watcher != -1; k++ {
			if h.log[k].ev != first.ev {
				h.t.Errorf("%s: scoped watcher %d heard another event than the oracle", name, h.log[k].watcher)
			}
			hearers = append(hearers, h.log[k].watcher)
		}
		if !reflect.DeepEqual(hearers, first.expect) {
			pod := first.ev.Object.(*spec.Pod)
			h.t.Errorf("%s: %v of %s (node %q, uid %q) reached scoped watchers %v, want %v",
				name, first.ev.Type, pod.Metadata.Name, pod.Spec.NodeName, pod.Metadata.UID, hearers, first.expect)
		}
		got = append(got, hearers)
	}
	if len(got) != len(want) {
		h.t.Errorf("%s: %d events delivered (to %v), script expects %d", name, len(got), got, len(want))
	} else if len(want) > 0 && !reflect.DeepEqual(got, want) {
		h.t.Errorf("%s: events reached scoped watchers %v, script expects %v", name, got, want)
	}
	h.log = h.log[:0]
	h.lateFrom = -1
}

func (h *scopedFixture) pod(name string) *spec.Pod {
	h.t.Helper()
	obj, err := h.admin.Get(spec.KindPod, spec.DefaultNamespace, name)
	if err != nil {
		h.t.Fatalf("get %s: %v", name, err)
	}
	return obj.(*spec.Pod)
}

func (h *scopedFixture) update(name string, mutate func(*spec.Pod)) {
	h.t.Helper()
	upd := spec.CloneForWriteAs(h.pod(name))
	mutate(upd)
	if err := h.admin.Update(upd); err != nil {
		h.t.Fatalf("update %s: %v", name, err)
	}
}

// rewrite updates pod name with the active server's store channel applying
// mutate to the bytes on their way to the store — how a field the API refuses
// to change (a bound nodeName, a UID) changes anyway under injection.
func (h *scopedFixture) rewrite(name string, mutate func(*spec.Pod)) {
	h.t.Helper()
	srv := h.active()
	srv.SetStoreWriteHook(func(m *Message) Action {
		obj := spec.New(m.Kind)
		if err := codecUnmarshal(m.Encoded(), obj); err != nil {
			h.t.Fatal(err)
		}
		mutate(obj.(*spec.Pod))
		m.Data = mustMarshal(obj)
		m.Tampered = true
		return Pass
	})
	h.update(name, func(p *spec.Pod) { p.Metadata.Annotations = map[string]string{"rewritten": p.Spec.NodeName} })
	srv.SetStoreWriteHook(nil)
}

func (h *scopedFixture) setReady(name string, ready bool) {
	h.t.Helper()
	upd := spec.CloneForStatusAs(h.pod(name))
	upd.Status.Ready = ready
	if err := h.admin.UpdateStatus(upd); err != nil {
		h.t.Fatalf("update status of %s: %v", name, err)
	}
}

func TestScopedWatchDeliversExactlyTheInterested(t *testing.T) {
	for _, replicas := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d-servers", replicas), func(t *testing.T) {
			h := newScopedFixture(t, replicas)
			// Scoped watchers 0-5 for nodes n0-n4 and n0 again, with an unscoped
			// node watcher and a second unscoped pod watcher registered among
			// them: the merge is over three lists.
			for i, node := range []string{"n0", "n1", "n2", "n3", "n4", "n0"} {
				h.addScoped(node)
				switch i {
				case 1:
					h.client("nodes").Watch(spec.KindNode, func(WatchEvent) {})
				case 3:
					h.client("pods").Watch(spec.KindPod, func(WatchEvent) {})
				}
			}
			none := []int{}

			h.step("create unbound", func() {
				if err := h.admin.Create(testPod("p1")); err != nil {
					t.Fatal(err)
				}
			}, none)
			uid := h.pod("p1").Metadata.UID
			h.step("bind to n1", func() { h.update("p1", func(p *spec.Pod) { p.Spec.NodeName = "n1" }) }, []int{1})
			h.claim(1, uid) // n1's kubelet runs it
			h.claim(3, uid) // and n3's holds a stale claim from an earlier life
			h.step("status update", func() { h.setReady("p1", true) }, []int{1, 3})

			h.step("nodeName rewritten to n0", func() {
				h.rewrite("p1", func(p *spec.Pod) { p.Spec.NodeName = "n0" })
			}, []int{0, 1, 3, 5}) // both n0 watchers; n1's and n3's by their claims alone
			h.step("nodeName rewritten back", func() {
				h.rewrite("p1", func(p *spec.Pod) { p.Spec.NodeName = "n1" })
			}, []int{1, 3})

			// Claims and releases made inside a callback, about the event being
			// delivered, do not change who hears that event.
			h.onHeard = func(i int, ev WatchEvent) {
				if i == 1 {
					h.claim(4, uid)   // later in the order, not interested so far
					h.release(3, uid) // later in the order, interested so far
					h.release(1, uid) // itself
				}
			}
			h.step("claims change under delivery", func() { h.setReady("p1", false) }, []int{1, 3})
			h.onHeard = nil
			h.step("and hold for the next event", func() { h.setReady("p1", true) }, []int{1, 4})

			h.claim(2, "uid-forged")
			h.step("uid rewritten", func() {
				h.rewrite("p1", func(p *spec.Pod) { p.Metadata.UID = "uid-forged" })
			}, []int{1, 2}) // n1 by node, 2 by the forged UID; 4's claim is on the real one

			// The watch channel: receivers follow the object as delivered.
			h.step("event tampered in nodeName", func() {
				h.active().SetWatchHook(func(m *Message) Action {
					obj := spec.New(m.Kind)
					if err := codecUnmarshal(m.Encoded(), obj); err != nil {
						t.Fatal(err)
					}
					obj.(*spec.Pod).Spec.NodeName = "n4"
					m.Data, m.Tampered = mustMarshal(obj), true
					return Pass
				})
				h.setReady("p1", false)
			}, []int{2, 4})
			h.step("event dropped", func() {
				h.active().SetWatchHook(func(*Message) Action { return Drop })
				h.setReady("p1", true)
			})
			h.active().SetWatchHook(nil)

			// A watcher registered after an event was dispatched does not hear
			// it, whatever its scope.
			armed := true
			h.cp.heard = func(i int) {
				if i == 0 && armed { // server 0 has dispatched the event
					armed = false
					h.lateFrom = h.addScoped("n1")
				}
			}
			h.step("registered under an event in flight", func() { h.setReady("p1", false) }, []int{1, 2})
			h.step("hears the next one", func() { h.setReady("p1", true) }, []int{1, 2, 6})

			// Cancel half the registrations: each cancel takes its watcher out of
			// every index at once, whatever it claimed, and the survivors'
			// claims and a new registration are indexed as usual.
			live := h.active().live
			for _, i := range []int{0, 1, 2, 3, 6} {
				h.cancel(i)
			}
			for _, w := range indexed(h.active()) {
				if w.cancelled {
					t.Fatalf("cancelled watcher (registration %d) still indexed", w.seq)
				}
			}
			if h.active().live != live-5 {
				t.Fatalf("cancelling 5 of %d live watchers left %d", live, h.active().live)
			}
			h.claim(5, "uid-forged")
			h.addScoped("n1") // 7
			h.step("after cancels", func() { h.setReady("p1", false) }, []int{5, 7})

			if replicas > 1 {
				h.claim(4, "uid-forged") // n4's: carried to the next server
				h.replayed = map[int][]string{}
				h.cp.servers[0].SetDown(true)
				h.eps.NoteServerDown(0)
				if h.active() != h.cp.servers[1] {
					t.Fatal("clients did not fail over to server 1")
				}
				inScope := h.interested(h.pod("p1"), false)
				for i := range h.scopes {
					var want []string // the one pod there is, if it is in scope
					if slices.Contains(inScope, i) {
						want = []string{"p1"}
					}
					if !reflect.DeepEqual(h.replayed[i], want) {
						t.Errorf("failover replayed %v to scoped watcher %d, want %v", h.replayed[i], i, want)
					}
				}
				h.replayed = nil
				h.step("after failover", func() { h.setReady("p1", true) }, []int{4, 5, 7})
			}

			h.step("delete", func() {
				if err := h.admin.Delete(spec.KindPod, spec.DefaultNamespace, "p1"); err != nil {
					t.Fatal(err)
				}
			}, h.interested(h.pod("p1"), false))

			// A reset forgets every registration and lets go of the scopes:
			// a claim made afterwards is nobody's to index, and the scopes
			// register again, claims and all.
			h.cp.loop.Reset()
			h.cp.backend.Reset()
			h.cp.plane.Reset()
			for _, srv := range h.cp.servers {
				if len(srv.byNode)+len(srv.byUID) != 0 {
					t.Fatal("Reset left scoped registrations indexed")
				}
			}
			h.eps.Reset(0)
			for i, scope := range h.scopes {
				if scope.srv != nil || scope.w != nil {
					t.Fatalf("Reset left scope %d attached", i)
				}
			}
			h.claim(0, "uid-after-reset")
			h.admin = h.client("admin")
			h.client("oracle").Watch(spec.KindPod, h.oracle)
			for i := range h.scopes {
				h.register(i)
			}
			h.step("after reset", func() {
				p := testPod("p2")
				p.Metadata.UID, p.Spec.NodeName = "uid-after-reset", "n2"
				if err := h.admin.Create(p); err != nil {
					t.Fatal(err)
				}
			}, []int{0, 2})
		})
	}
}

// What a pod event costs in callbacks depends on who is interested in the pod,
// not on how many kubelets watch: the same script delivers the same number of
// events to 5 scoped watchers and to 500.
func TestPodFanoutIsIndependentOfNodeCount(t *testing.T) {
	deliveries := func(watchers int) int {
		loop, _, srv := newTestServer(t)
		n := 0
		for i := 0; i < watchers; i++ {
			scope := &PodScope{Node: fmt.Sprintf("node-%d", i)}
			srv.ClientFor(fmt.Sprintf("kubelet-%d", i)).WatchPods(scope, func(ev WatchEvent) {
				n++
				if ev.Type == Modified {
					scope.Claim(ev.Object.Meta().UID) // adopt it, as a kubelet would
				}
			})
		}
		c := srv.ClientFor("test")
		for _, name := range []string{"web-1", "web-2"} {
			if err := c.Create(testPod(name)); err != nil {
				t.Fatal(err)
			}
			settle(loop)
			obj, _ := c.Get(spec.KindPod, spec.DefaultNamespace, name)
			bound := spec.CloneForWriteAs(obj.(*spec.Pod))
			bound.Spec.NodeName = "node-3"
			if err := c.Update(bound); err != nil {
				t.Fatal(err)
			}
			settle(loop)
			obj, _ = c.Get(spec.KindPod, spec.DefaultNamespace, name)
			running := spec.CloneForStatusAs(obj.(*spec.Pod))
			running.Status.Phase = spec.PodRunning
			if err := c.UpdateStatus(running); err != nil {
				t.Fatal(err)
			}
			settle(loop)
		}
		if err := c.Delete(spec.KindPod, spec.DefaultNamespace, "web-1"); err != nil {
			t.Fatal(err)
		}
		settle(loop)
		return n
	}
	few, many := deliveries(5), deliveries(500)
	if few != 5 { // per pod: the bind and the status update; and one delete
		t.Errorf("the script delivered %d pod events to 5 scoped watchers, want 5", few)
	}
	if many != few {
		t.Errorf("the script delivered %d pod events to 500 scoped watchers and %d to 5: fan-out grows with the node count", many, few)
	}
}
