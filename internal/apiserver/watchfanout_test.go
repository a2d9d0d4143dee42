package apiserver

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// FuzzWatchFanout holds the watch fan-out to the rule Server.receivers is
// documented by: walk every registration in sequence order, and deliver the
// event to each that registered before the event was dispatched, watches its
// kind, wants the delivered object (by the claims held when delivery starts)
// and is not cancelled when its turn comes — each at most once.
//
// A program is a byte string of operations on one server: unscoped and
// scoped watches, claims and releases on scopes registered or not, cancels,
// pod creates, binds, status updates and deletes, store-channel rewrites of
// spec.nodeName and metadata.uid, watch-channel tampers and drops, and two
// writes in one tick. A claim, release, registration or cancel can be put off
// into the callbacks of the next delivery, one per callback.
//
// The reference needs two facts about each event, and reads both from outside
// the fan-out: its dispatch limit, which is the number of registrations made
// when the server's access hook sees the dispatch (the program registers
// every watch itself, so it numbers them as the server does), and the moment
// its delivery starts, which is when the sentinel — registered first for its
// kind, never cancelled — hears it.
func FuzzWatchFanout(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		data := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			return
		}
		newFanoutHarness(t).run(data)
	})
}

var (
	fanoutNodes = []string{"n0", "n1", "n2"}
	fanoutPods  = []string{"p0", "p1", "p2", "p3"}
	// fanoutUIDs are the UIDs a scope may claim: those the server draws for
	// its first creates, and the one a store-channel rewrite forges.
	fanoutUIDs  = []string{spec.FormatUID(1), spec.FormatUID(2), spec.FormatUID(3), spec.FormatUID(4), spec.FormatUID(5), "uid-forged"}
	fanoutKinds = []spec.Kind{spec.KindPod, spec.KindPod, spec.KindConfigMap, spec.KindNode}
	// fanoutSentinels are the kinds the program writes: registrations 0 and 1.
	fanoutSentinels = []spec.Kind{spec.KindPod, spec.KindConfigMap}
)

// fanoutReg is one registration; its index in fanoutHarness.regs is its
// sequence number.
type fanoutReg struct {
	kind      spec.Kind
	scope     *fanoutScope // nil: unscoped
	cancel    func()
	cancelled bool
}

// fanoutScope is a PodScope with the harness's own record of its claims.
type fanoutScope struct {
	*PodScope
	claims     map[string]bool
	registered bool // some registration of it is not cancelled
}

type fanoutHarness struct {
	t      *testing.T
	srv    *Server
	admin  *Client
	regs   []*fanoutReg
	scopes []*fanoutScope

	data []byte
	pos  int
	step string

	settling bool
	limits   []int // dispatch limits of the events not yet delivered, oldest first
	// The event in delivery: the registrations the walk reaches, and how many
	// of them are behind.
	inDelivery bool
	ev         WatchEvent
	want       []int
	next       int
	deferred   []func()
}

func newFanoutHarness(t *testing.T) *fanoutHarness {
	_, _, srv := newTestServer(t)
	h := &fanoutHarness{t: t, srv: srv, admin: srv.ClientFor("admin")}
	srv.SetAccessHook(func(string) {
		if h.settling { // a dispatch: the harness reads nothing while the loop runs
			h.limits = append(h.limits, len(h.regs))
		}
	})
	for _, kind := range fanoutSentinels {
		h.watch(kind, nil, true)
	}
	return h
}

func (h *fanoutHarness) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("step %s: %s", h.step, fmt.Sprintf(format, args...))
}

// byte returns the program's next byte, 0 past its end.
func (h *fanoutHarness) byte() int {
	if h.pos >= len(h.data) {
		return 0
	}
	h.pos++
	return int(h.data[h.pos-1])
}

func (h *fanoutHarness) watch(kind spec.Kind, scope *fanoutScope, sentinel bool) {
	i := len(h.regs)
	r := &fanoutReg{kind: kind, scope: scope}
	h.regs = append(h.regs, r)
	fn := func(ev WatchEvent) {
		if sentinel {
			h.begin(ev)
		}
		h.heard(i, ev)
	}
	if scope == nil {
		r.cancel = h.admin.Watch(kind, fn)
		return
	}
	scope.registered = true
	r.cancel = h.admin.WatchPods(scope.PodScope, fn)
}

// begin starts the delivery of ev: the registrations the reference walk
// reaches are listed with the claims held now.
func (h *fanoutHarness) begin(ev WatchEvent) {
	h.finish()
	if len(h.limits) == 0 {
		h.fatalf("%s delivered without a dispatch", describe(ev))
	}
	limit := h.limits[0]
	h.limits = h.limits[1:]
	h.inDelivery, h.ev, h.want, h.next = true, ev, h.want[:0], 0
	pod, _ := ev.Object.(*spec.Pod)
	for i, r := range h.regs[:limit] {
		if r.kind != ev.Kind || r.cancelled {
			continue
		}
		if r.scope != nil && pod.Spec.NodeName != r.scope.Node && !r.scope.claims[pod.Metadata.UID] {
			continue
		}
		h.want = append(h.want, i)
	}
}

// heard checks that registration i is the next one the walk delivers to, the
// ones before it having been cancelled in this delivery, and then runs one
// put-off operation.
func (h *fanoutHarness) heard(i int, ev WatchEvent) {
	if !h.inDelivery || ev != h.ev {
		h.fatalf("registration %d heard %s outside its delivery", i, describe(ev))
	}
	switch {
	case h.regs[i].cancelled:
		h.fatalf("registration %d heard %s after it was cancelled", i, describe(ev))
	case slices.Contains(h.want[:h.next], i):
		h.fatalf("registration %d heard %s twice, receivers %v", i, describe(ev), h.want)
	}
	for ; h.next < len(h.want) && h.want[h.next] != i; h.next++ {
		if !h.regs[h.want[h.next]].cancelled {
			h.fatalf("registration %d heard %s before registration %d, receivers %v", i, describe(ev), h.want[h.next], h.want)
		}
	}
	if h.next == len(h.want) {
		h.fatalf("registration %d heard %s, receivers %v", i, describe(ev), h.want)
	}
	h.next++
	if len(h.deferred) > 0 {
		op := h.deferred[0]
		h.deferred = h.deferred[1:]
		op()
	}
}

// finish ends the delivery in progress: every receiver the walk reaches after
// the last callback must have been cancelled by then.
func (h *fanoutHarness) finish() {
	if !h.inDelivery {
		return
	}
	for _, i := range h.want[h.next:] {
		if !h.regs[i].cancelled {
			h.fatalf("registration %d did not hear %s, receivers %v", i, describe(h.ev), h.want)
		}
	}
	h.inDelivery = false
}

// describe names ev for a failure message.
func describe(ev WatchEvent) string {
	meta := ev.Object.Meta()
	if pod, ok := ev.Object.(*spec.Pod); ok {
		return fmt.Sprintf("%v Pod %s (node %q, uid %q)", ev.Type, meta.Name, pod.Spec.NodeName, meta.UID)
	}
	return fmt.Sprintf("%v %s %s", ev.Type, ev.Kind, meta.Name)
}

// settle runs the loop until every write's events are delivered, then runs
// the put-off operations no callback took.
func (h *fanoutHarness) settle() {
	h.settling = true
	h.srv.loop.RunUntil(h.srv.loop.Now() + 50*time.Millisecond)
	h.settling = false
	h.finish()
	if len(h.limits) != 0 {
		h.fatalf("%d dispatched events were neither delivered nor dropped", len(h.limits))
	}
	ops := h.deferred
	h.deferred = nil
	for _, op := range ops {
		op()
	}
}

// now runs op at once, or puts it off into the next delivery's callbacks.
func (h *fanoutHarness) now(inside bool, op func()) {
	if inside {
		h.deferred = append(h.deferred, op)
		return
	}
	op()
}

func (h *fanoutHarness) run(data []byte) {
	h.data = data
	for n := 0; h.pos < len(h.data); n++ {
		b := h.byte()
		op, inside := b%16, b >= 128
		h.step = fmt.Sprintf("%d (op %d)", n, op)
		switch op {
		case 0, 1: // an unscoped watch
			kind := fanoutKinds[h.byte()%len(fanoutKinds)]
			h.now(inside, func() { h.watch(kind, nil, false) })
		case 2: // a new scope, not registered
			h.scopes = append(h.scopes, &fanoutScope{
				PodScope: &PodScope{Node: fanoutNodes[h.byte()%len(fanoutNodes)]},
				claims:   map[string]bool{},
			})
		case 3, 4, 5: // a claim, or a release
			if len(h.scopes) == 0 {
				continue
			}
			s := h.scopes[h.byte()%len(h.scopes)]
			uid := h.uid(s, op == 5)
			h.now(inside, func() {
				if op != 5 {
					s.Claim(uid)
					s.claims[uid] = true
				} else {
					s.Release(uid)
					delete(s.claims, uid)
				}
			})
		case 6: // a scoped watch, on a scope no live registration holds
			if len(h.scopes) == 0 {
				continue
			}
			s := h.scopes[h.byte()%len(h.scopes)]
			h.now(inside, func() {
				if !s.registered {
					h.watch(spec.KindPod, s, false)
				}
			})
		case 7, 8: // a cancel, possibly of a cancelled registration
			sentinels := len(fanoutSentinels)
			if len(h.regs) == sentinels {
				continue
			}
			r := h.regs[sentinels+h.byte()%(len(h.regs)-sentinels)]
			h.now(inside, func() {
				r.cancel()
				if r.scope != nil && !r.cancelled {
					r.scope.registered = false
				}
				r.cancelled = true
			})
		case 9, 10, 11: // a pod write
			h.podWrite()
			h.settle()
		case 12: // a store-channel rewrite of spec.nodeName or metadata.uid
			h.rewrite()
			h.settle()
		case 13: // a watch-channel tamper of spec.nodeName, or a drop, on the next write
			h.tamper(h.byte())
			h.podWrite()
			h.settle()
			h.srv.SetWatchHook(nil)
		case 14, 15: // two writes in one tick, the first one's delivery registering a watch
			kind := fanoutKinds[h.byte()%len(fanoutKinds)]
			h.now(true, func() { h.watch(kind, nil, false) })
			h.podWrite()
			if h.byte()%2 == 0 {
				h.configMapWrite()
			} else {
				h.podWrite()
			}
			h.settle()
		}
	}
}

// uid picks a UID for s to claim or release: one it claimed, when it
// releases, or else a live pod's or one of fanoutUIDs.
func (h *fanoutHarness) uid(s *fanoutScope, release bool) string {
	b := h.byte()
	if release && len(s.claims) > 0 {
		claimed := make([]string, 0, len(s.claims))
		for uid := range s.claims {
			claimed = append(claimed, uid)
		}
		slices.Sort(claimed)
		return claimed[b%len(claimed)]
	}
	if p := h.pod(fanoutPods[b%len(fanoutPods)]); p != nil && b&4 == 0 {
		return p.Metadata.UID
	}
	return fanoutUIDs[b%len(fanoutUIDs)]
}

func (h *fanoutHarness) pod(name string) *spec.Pod {
	obj, err := h.admin.Get(spec.KindPod, spec.DefaultNamespace, name)
	if err != nil {
		return nil
	}
	return obj.(*spec.Pod)
}

// podWrite creates a pod, bound or not, where there is none, and otherwise
// binds it, flips its readiness or, once in eight, deletes it.
func (h *fanoutHarness) podWrite() {
	name := fanoutPods[h.byte()%len(fanoutPods)]
	node := fanoutNodes[h.byte()%len(fanoutNodes)]
	b := h.byte()
	switch p := h.pod(name); {
	case p == nil:
		p = testPod(name)
		if b%2 == 0 {
			p.Spec.NodeName = node
		}
		_ = h.admin.Create(p)
	case b%8 == 0:
		_ = h.admin.Delete(spec.KindPod, spec.DefaultNamespace, name)
	case p.Spec.NodeName == "" && b%2 == 0:
		p = spec.CloneForWriteAs(p)
		p.Spec.NodeName = node
		_ = h.admin.Update(p)
	default:
		p = spec.CloneForStatusAs(p)
		p.Status.Ready = !p.Status.Ready
		_ = h.admin.UpdateStatus(p)
	}
}

// configMapWrite creates or updates a ConfigMap: an event of another kind.
func (h *fanoutHarness) configMapWrite() {
	obj, err := h.admin.Get(spec.KindConfigMap, spec.DefaultNamespace, "cm")
	if err != nil {
		_ = h.admin.Create(&spec.ConfigMap{Metadata: spec.ObjectMeta{Name: "cm", Namespace: spec.DefaultNamespace}})
		return
	}
	cm := spec.CloneForWriteAs(obj.(*spec.ConfigMap))
	cm.Data = map[string]string{"v": fmt.Sprint(h.pos)}
	_ = h.admin.Update(cm)
}

// rewrite updates a pod with the store channel rewriting its spec.nodeName or
// metadata.uid on the way to the store.
func (h *fanoutHarness) rewrite() {
	name := fanoutPods[h.byte()%len(fanoutPods)]
	uid := h.byte()%2 == 1
	node, forged := fanoutNodes[h.byte()%len(fanoutNodes)], fanoutUIDs[h.byte()%len(fanoutUIDs)]
	p := h.pod(name)
	if p == nil {
		return
	}
	h.srv.SetStoreWriteHook(func(m *Message) Action {
		obj := spec.New(m.Kind)
		if err := codecUnmarshal(m.Encoded(), obj); err != nil {
			h.fatalf("store channel: %v", err)
		}
		if uid {
			obj.Meta().UID = forged
		} else {
			obj.(*spec.Pod).Spec.NodeName = node
		}
		m.Data, m.Tampered = mustMarshal(obj), true
		return Pass
	})
	p = spec.CloneForWriteAs(p)
	p.Metadata.Annotations = map[string]string{"rewritten": fmt.Sprint(h.pos)}
	_ = h.admin.Update(p)
	h.srv.SetStoreWriteHook(nil)
}

// tamper arms the watch channel: b picks a drop of every event, or a rewrite
// of every pod event's spec.nodeName.
func (h *fanoutHarness) tamper(b int) {
	node := fanoutNodes[b/2%len(fanoutNodes)]
	h.srv.SetWatchHook(func(m *Message) Action {
		if b%2 == 0 {
			h.limits = h.limits[1:] // the event dies before its delivery starts
			return Drop
		}
		if m.Kind != spec.KindPod || len(m.Encoded()) == 0 {
			return Pass
		}
		obj := spec.New(m.Kind)
		if err := codecUnmarshal(m.Encoded(), obj); err != nil {
			h.fatalf("watch channel: %v", err)
		}
		obj.(*spec.Pod).Spec.NodeName = node
		m.Data, m.Tampered = mustMarshal(obj), true
		return Pass
	})
}
