package scheduler

import (
	"fmt"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

func newScheduler(t *testing.T) (*sim.Loop, *apiserver.Client, *Scheduler) {
	t.Helper()
	loop := sim.NewLoop(1)
	st := store.NewReplicated(loop, 1, nil)
	srv := apiserver.New(loop, st, nil)
	s := New(loop, srv.Endpoints(), "kube-scheduler-0")
	c := srv.ClientFor("test")
	for i, name := range []string{"worker-0", "worker-1"} {
		node := &spec.Node{
			Metadata: spec.ObjectMeta{Name: name, Labels: map[string]string{"zone": []string{"a", "b"}[i]}},
			Status: spec.NodeStatus{
				Ready: true, AllocatableMilliCPU: 4000, AllocatableMemMB: 2048,
				LastHeartbeatMillis: loop.Time().UnixMilli(),
			},
		}
		if err := c.Create(node); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	loop.RunUntil(5 * time.Second)
	return loop, c, s
}

func pendingPod(name string, cpu int64) *spec.Pod {
	return &spec.Pod{
		Metadata: spec.ObjectMeta{Name: name, Namespace: spec.DefaultNamespace},
		Spec: spec.PodSpec{Containers: []spec.Container{{
			Name: "c", Image: "registry.local/web:1", Command: []string{"serve"},
			RequestsMilliCPU: cpu, RequestsMemMB: 128,
		}}},
	}
}

func nodeOf(t *testing.T, c *apiserver.Client, name string) string {
	t.Helper()
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, name)
	if err != nil {
		t.Fatal(err)
	}
	return obj.(*spec.Pod).Spec.NodeName
}

// moveInStore writes the pod back to the store as running on node, past the
// apiserver and its validation (nodeName is immutable once bound): what a
// store-channel injection into spec.nodeName lands.
func moveInStore(t testing.TB, st *store.Store, pod *spec.Pod, node string) {
	t.Helper()
	moved := spec.CloneForWriteAs(pod)
	moved.Spec.NodeName = node
	data, err := codec.Marshal(moved)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(spec.Key(spec.KindPod, moved.Metadata.Namespace, moved.Metadata.Name), spec.KindPod, data); err != nil {
		t.Fatal(err)
	}
}

func TestBindsPendingPod(t *testing.T) {
	loop, c, _ := newScheduler(t)
	if err := c.Create(pendingPod("web-1", 500)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 2*time.Second)
	if n := nodeOf(t, c, "web-1"); n == "" {
		t.Fatal("pod not scheduled")
	}
}

func TestSpreadsByLeastAllocated(t *testing.T) {
	loop, c, _ := newScheduler(t)
	for _, name := range []string{"a", "b", "c", "d"} {
		if err := c.Create(pendingPod(name, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunUntil(loop.Now() + 3*time.Second)
	counts := map[string]int{}
	for _, name := range []string{"a", "b", "c", "d"} {
		counts[nodeOf(t, c, name)]++
	}
	if counts["worker-0"] != 2 || counts["worker-1"] != 2 {
		t.Fatalf("placement %v, want an even spread", counts)
	}
}

func TestRespectsNodeSelector(t *testing.T) {
	loop, c, _ := newScheduler(t)
	p := pendingPod("picky", 100)
	p.Spec.NodeSelector = map[string]string{"zone": "b"}
	if err := c.Create(p); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 2*time.Second)
	if n := nodeOf(t, c, "picky"); n != "worker-1" {
		t.Fatalf("scheduled on %q, want worker-1 (zone=b)", n)
	}
}

func TestRespectsTaints(t *testing.T) {
	loop, c, _ := newScheduler(t)
	obj, _ := c.Get(spec.KindNode, "", "worker-0")
	node := spec.CloneForWriteAs(obj.(*spec.Node))
	node.Spec.Taints = []spec.Taint{{Key: "dedicated", Effect: spec.TaintNoSchedule}}
	if err := c.Update(node); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	for _, name := range []string{"a", "b", "c"} {
		if err := c.Create(pendingPod(name, 100)); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunUntil(loop.Now() + 2*time.Second)
	for _, name := range []string{"a", "b", "c"} {
		if n := nodeOf(t, c, name); n != "worker-1" {
			t.Fatalf("pod %s on tainted node %q", name, n)
		}
	}
}

func TestUnschedulableStaysPending(t *testing.T) {
	loop, c, _ := newScheduler(t)
	if err := c.Create(pendingPod("huge", 9000)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 5*time.Second)
	if n := nodeOf(t, c, "huge"); n != "" {
		t.Fatalf("infeasible pod bound to %q", n)
	}
}

func TestPreemptionEvictsLowerPriority(t *testing.T) {
	loop, c, _ := newScheduler(t)
	// Fill both nodes.
	for _, name := range []string{"a", "b"} {
		if err := c.Create(pendingPod(name, 3500)); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunUntil(loop.Now() + 3*time.Second)
	// A high-priority pod arrives with nowhere to fit.
	p := pendingPod("vip", 3000)
	p.Spec.Priority = 1000
	if err := c.Create(p); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 5*time.Second)
	if n := nodeOf(t, c, "vip"); n == "" {
		t.Fatal("high-priority pod not scheduled after preemption")
	}
	// One victim must be gone.
	survivors := 0
	for _, name := range []string{"a", "b"} {
		if _, err := c.Get(spec.KindPod, spec.DefaultNamespace, name); err == nil {
			survivors++
		}
	}
	if survivors != 1 {
		t.Fatalf("%d low-priority pods survived, want 1", survivors)
	}
}

// Pods bound by someone else (daemon pods, external binders) must be
// absorbed into the cache without triggering the corruption self-check.
func TestExternallyBoundPodDoesNotRestart(t *testing.T) {
	loop, c, s := newScheduler(t)
	bound := pendingPod("daemon-1", 100)
	bound.Spec.NodeName = "worker-0"
	if err := c.Create(bound); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 2*time.Second)
	if s.Restarts() != 0 {
		t.Fatalf("restarts = %d for an externally bound pod, want 0", s.Restarts())
	}
	if !s.IsRunning() {
		t.Fatal("scheduler stopped")
	}
}

func TestRestartAfterStoreMovesPod(t *testing.T) {
	loop := sim.NewLoop(2)
	st := store.NewReplicated(loop, 1, nil)
	srv := apiserver.New(loop, st, nil)
	s := New(loop, srv.Endpoints(), "kube-scheduler-0")
	c := srv.ClientFor("test")
	for _, name := range []string{"worker-0", "worker-1"} {
		node := &spec.Node{
			Metadata: spec.ObjectMeta{Name: name},
			Status: spec.NodeStatus{Ready: true, AllocatableMilliCPU: 4000,
				AllocatableMemMB: 2048, LastHeartbeatMillis: loop.Time().UnixMilli()},
		}
		if err := c.Create(node); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	loop.RunUntil(5 * time.Second)
	if err := c.Create(pendingPod("web-1", 500)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 2*time.Second)
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	pod := obj.(*spec.Pod)
	if pod.Spec.NodeName == "" {
		t.Fatal("setup: not scheduled")
	}
	moveInStore(t, st.Replica(0), pod, "ghost-node")
	loop.RunUntil(loop.Now() + 2*time.Second)
	if s.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1 after cache mismatch", s.Restarts())
	}
	if s.IsRunning() {
		t.Fatal("scheduler still running immediately after restart")
	}
	// A new leader takes over after the stale lease expires (~20s).
	loop.RunUntil(loop.Now() + 40*time.Second)
	if !s.IsRunning() {
		t.Fatal("scheduler did not recover after restart")
	}
}

// scheduleAll walks the pod view and skips what is not pending, so it relies
// on every pending key being a view key whenever the scheduler runs. Drive
// the ways the two can part — live events, an event tampered on the watch
// channel, a lost event repaired by the view's resync, a cache-mismatch
// restart — and check the inclusion after every 50 ms of it.
func TestPendingStaysInsideTheView(t *testing.T) {
	loop := sim.NewLoop(3)
	st := store.NewReplicated(loop, 1, nil)
	srv := apiserver.New(loop, st, nil)
	// The lease is free, so the scheduler leads and its views start at t=0:
	// their periodic resync falls on multiples of viewResync.
	s := New(loop, srv.Endpoints(), "kube-scheduler-0")
	c := srv.ClientFor("test")
	node := &spec.Node{
		Metadata: spec.ObjectMeta{Name: "worker-0"},
		Status:   spec.NodeStatus{Ready: true, AllocatableMilliCPU: 4000, AllocatableMemMB: 2048},
	}
	if err := c.Create(node); err != nil {
		t.Fatal(err)
	}
	s.Start()

	step := "start"
	advance := func(d time.Duration) {
		t.Helper()
		for end := loop.Now() + d; loop.Now() < end; {
			loop.RunUntil(loop.Now() + 50*time.Millisecond)
			for key := range s.pending {
				if _, ok := s.views.GetByKey(spec.KindPod, key); !ok {
					t.Fatalf("%s: pending key %q is not in the pod view", step, key)
				}
			}
		}
	}
	wantPending := func(key string, want bool) {
		t.Helper()
		if _, got := s.pending[key]; got != want {
			t.Fatalf("%s: pending[%q] = %v, want %v", step, key, got, want)
		}
	}
	create := func(name string, cpu int64) {
		t.Helper()
		if err := c.Create(pendingPod(name, cpu)); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	remove := func(name string) {
		t.Helper()
		if err := c.Delete(spec.KindPod, spec.DefaultNamespace, name); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	// onNext arms a one-shot watch-channel fault on the next pod event of
	// the given verb.
	onNext := func(verb apiserver.Verb, fault func(*apiserver.Message) apiserver.Action) {
		srv.SetWatchHook(func(m *apiserver.Message) apiserver.Action {
			if m.Kind != spec.KindPod || m.Verb != verb {
				return apiserver.Pass
			}
			srv.SetWatchHook(nil)
			return fault(m)
		})
	}
	// pastResync advances to just after the views' next periodic resync.
	pastResync := func() {
		t.Helper()
		advance(viewResync - loop.Now()%viewResync + 50*time.Millisecond)
	}
	const settle = 500 * time.Millisecond // a few scheduling cycles, no resync
	advance(settle)

	step = "create"
	create("big-1", 9000)             // fits nowhere: stays pending
	picky := pendingPod("picky", 100) // selects no node: pending until bound by hand
	picky.Spec.NodeSelector = map[string]string{"zone": "nowhere"}
	if err := c.Create(picky); err != nil {
		t.Fatal(err)
	}
	advance(settle)
	wantPending("default/big-1", true)
	wantPending("default/picky", true)

	step = "external bind"
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "picky")
	if err != nil {
		t.Fatal(err)
	}
	bound := spec.CloneForWriteAs(obj.(*spec.Pod))
	bound.Spec.NodeName = "worker-0"
	if err := c.Update(bound); err != nil {
		t.Fatal(err)
	}
	advance(settle)
	wantPending("default/picky", false)

	step = "delete"
	remove("big-1")
	advance(settle)
	wantPending("default/big-1", false)

	step = "event tampered to another name"
	onNext(apiserver.VerbCreate, func(m *apiserver.Message) apiserver.Action {
		var p spec.Pod
		if err := codec.Unmarshal(m.Encoded(), &p); err != nil {
			t.Errorf("decoding the watch event: %v", err)
			return apiserver.Pass
		}
		p.Metadata.Name = "ghost"
		data, err := codec.Marshal(&p)
		if err != nil {
			t.Errorf("re-encoding the watch event: %v", err)
			return apiserver.Pass
		}
		m.Data, m.Tampered = data, true
		return apiserver.Pass
	})
	create("big-3", 9000)
	advance(settle)
	wantPending("default/ghost", true) // pending and view agree on the wrong name
	wantPending("default/big-3", false)
	pastResync() // drops the ghost and finds the real pod
	wantPending("default/ghost", false)
	wantPending("default/big-3", true)

	step = "dropped delete"
	onNext(apiserver.VerbDelete, func(*apiserver.Message) apiserver.Action { return apiserver.Drop })
	remove("big-3")
	advance(settle)
	wantPending("default/big-3", true) // stale, and so is the view
	pastResync()
	wantPending("default/big-3", false)

	step = "cache-mismatch restart"
	create("big-4", 9000)
	create("web-1", 500)
	advance(settle)
	obj, err = c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	if obj.(*spec.Pod).Spec.NodeName == "" {
		t.Fatal("setup: web-1 not scheduled")
	}
	moveInStore(t, st.Replica(0), obj.(*spec.Pod), "ghost-node")
	advance(settle)
	if s.Restarts() != 1 || s.IsRunning() {
		t.Fatalf("restarts = %d, running = %v, want 1 and stopped", s.Restarts(), s.IsRunning())
	}
	// The restarted scheduler campaigns under a fresh identity, so it leads
	// again once the lease it abandoned expires.
	advance(restartDelay + 15*time.Second + settle)
	if !s.IsRunning() {
		t.Fatal("scheduler did not come back")
	}
	wantPending("default/big-4", true) // re-primed from the view
}

// The pod view's order is the scheduling order: of three pods pending in the
// same cycle with room for one, the first by namespace/name wins, whatever
// order they arrived in.
func TestSchedulesPendingInKeyOrder(t *testing.T) {
	loop, c, _ := newScheduler(t)
	pods := [][2]string{{"b", "a"}, {"a", "z"}, {"a", "b"}}
	for _, p := range pods {
		pod := pendingPod(p[1], 3000)
		pod.Metadata.Namespace = p[0]
		pod.Spec.NodeSelector = map[string]string{"zone": "a"} // worker-0 only: 4000m
		if err := c.Create(pod); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunUntil(loop.Now() + 2*time.Second)
	for _, p := range pods {
		obj, err := c.Get(spec.KindPod, p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		got, want := obj.(*spec.Pod).Spec.NodeName, ""
		if p == [2]string{"a", "b"} {
			want = "worker-0"
		}
		if got != want {
			t.Errorf("pod %s/%s on node %q, want %q", p[0], p[1], got, want)
		}
	}
}

// A cycle enters the pod view at the first pod it has to try: one new pending
// pod behind 300 bound ones costs the walk that pod, not the 301 a walk from
// the first key looks at.
func TestCycleStartsAtFirstUntried(t *testing.T) {
	loop, c, s := newScheduler(t)
	for i := 0; i < 300; i++ {
		pod := pendingPod(fmt.Sprintf("bound-%03d", i), 0)
		pod.Spec.NodeName = "worker-0"
		pod.Spec.Containers[0].RequestsMemMB = 0
		if err := c.Create(pod); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunUntil(loop.Now() + time.Second)
	before := s.walked
	if err := c.Create(pendingPod("web-new", 500)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	if nodeOf(t, c, "web-new") == "" {
		t.Fatal("the new pod was not scheduled")
	}
	if got := s.walked - before; got > 2 {
		t.Fatalf("the cycles walked %d pods to schedule one pending pod that sorts last, want at most 2", got)
	}
}
