package scheduler

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// The retry rule — a pod found to fit no node waits for a cluster event — is
// held to the rule it replaced: look at every pending pod every cycle. A
// retryRig drives a scheduler through a program of cluster operations, one
// scheduling cycle after each, and before every cycle works out, from the
// scheduler's own node and pod views and its own allocation sums but with no
// memory of earlier cycles, which pods a pass over all pending pods would bind
// and where. The cycle must issue exactly those binds, in that order.

// Operations of a program: one byte each, the operation in the low nibble and
// its argument (which node, which pod, how many) in the high one.
const (
	opTick         = iota // 1+arg cycles with nothing happening
	opCreateSmall         // 1+arg pods of 1000m: twelve fill the cluster
	opCreateBig           // 1+arg pods of 2500m
	opCreatePicky         // a 500m pod selecting zone a, b, c or none that exists
	opCreateUrgent        // a 2500m pod with a priority: it preempts
	opDeleteBound         // delete a pod bound to node arg%3
	opShrinkBound         // cut the requests of a pod bound to node arg%3 to 100m
	opGrowBound           // add 500m to the requests of a pod bound to node arg%3
	opCordon              // cordon the arg-th node, or uncordon it
	opHeartbeat           // a status write on the arg-th node
	opRewriteNode         // rewrite the arg-th node's labels and allocatable at rest, then restart the apiserver
	opRetarget            // give the arg-th pending pod a selector no node has, or take it away
	opLoseBind            // the next bind is dropped on the store channel
	opRefuseBind          // the next bind is dropped on the request channel: Update fails
	opMoveBound           // the store says a pod bound to node arg%3 runs on a node nobody chose
	opFailPending         // the arg-th pending pod's phase becomes Failed
)

func step(op, arg int) byte { return byte(op | arg<<4) }

// churn is the scripted program of TestSkippedPodsCouldNotHaveBound and the
// fuzz target's first seed.
var churn = slices.Concat([]byte{
	// Eleven of the twelve places taken; then two pods for the last one, and
	// the first one's bind is lost: the second must not be written off.
	step(opCreateSmall, 10),
	step(opLoseBind, 0), step(opCreateSmall, 1), step(opTick, 1),
	// 50 pods that fit nowhere, and cycles in which nothing happens.
	step(opCreateBig, 15), step(opCreateBig, 15), step(opCreateBig, 15), step(opCreateBig, 1), step(opTick, 9),
	// Capacity comes back on node-a: a delete, then two shrinks, make room
	// for one of them.
	step(opDeleteBound, 0), step(opTick, 1),
	step(opShrinkBound, 0), step(opShrinkBound, 3), step(opTick, 1),
	step(opGrowBound, 0), step(opTick, 0),
	// Node events. node-b is emptied while cordoned, and uncordoned; node-c
	// gets a heartbeat.
	step(opCordon, 1), step(opDeleteBound, 1), step(opDeleteBound, 1), step(opDeleteBound, 1), step(opTick, 1),
	step(opCordon, 1), step(opTick, 1),
	step(opHeartbeat, 2), step(opTick, 1),
	// A pod's own event. The pod whose bind was lost is pending again with its
	// next event, which gives it a selector no node has; room on node-b does not
	// help it, taking the selector away does.
	step(opRetarget, 0), step(opDeleteBound, 1), step(opTick, 1), step(opRetarget, 0), step(opTick, 1),
	step(opCreatePicky, 0), step(opFailPending, 1),
	// node-c is given another zone and 9000m at rest.
	step(opRewriteNode, 2), step(opTick, 2),
	// A bind the server refuses is tried again.
	step(opDeleteBound, 2), step(opRefuseBind, 0), step(opCreateSmall, 0), step(opTick, 1),
	// A pod with a priority preempts, on its own clock.
	step(opCreateUrgent, 0), step(opTick, 15),
	// The cache self-check: a restart, and the backlog is looked at afresh.
	step(opMoveBound, 4)}, awaitLease, []byte{
	step(opDeleteBound, 2), step(opTick, 2),
})

// awaitLease covers a cache-mismatch restart: the scheduler leads again once
// the lease it abandoned expires, at most 15 s after its last renewal plus a
// 2 s retry, which thirteen 16-cycle ticks (20.8 s) outlast.
var awaitLease = bytes.Repeat([]byte{step(opTick, 15)}, 13)

// moved gives capacity back through the self-check: twelve pods fill the
// cluster, a thirteenth waits, and one of node-a's is moved away. The
// scheduler restarts, and once it leads again its rebuilt cache charges the
// moved pod to the node the store names, so the thirteenth binds.
var moved = slices.Concat([]byte{step(opCreateSmall, 11), step(opCreateSmall, 0), step(opTick, 2), step(opMoveBound, 0)}, awaitLease)

type bind struct{ key, node string }

type retryRig struct {
	t    testing.TB
	loop *sim.Loop
	st   *store.Store
	srv  *apiserver.Server
	c    *apiserver.Client
	s    *Scheduler

	log     bool
	step    string
	created int
	lose    int    // binds still to be dropped on the store channel
	refuse  int    // binds still to be dropped on the request channel
	binding bool   // the request in progress is a bind
	got     []bind // the binds of the cycle in progress

	lost, refused int             // binds that were
	cycles        int             // cycles the scheduler was running for
	brute         int             // attempts of a scheduler that skips nothing
	attempts      int             // attempts made
	shelved       map[string]bool // pods that ever held a verdict
	revived       int             // binds of such pods
}

var rigNodes = []string{"node-a", "node-b", "node-c"}

func newRetryRig(t testing.TB) *retryRig {
	loop := sim.NewLoop(24)
	st := store.NewReplicated(loop, 1, nil)
	srv := apiserver.New(loop, st, nil)
	r := &retryRig{
		t: t, loop: loop, st: st.Replica(0), srv: srv, c: srv.ClientFor("test"),
		s:       New(loop, srv.Endpoints(), "kube-scheduler-0"),
		shelved: make(map[string]bool),
	}
	for _, name := range rigNodes {
		node := &spec.Node{
			Metadata: spec.ObjectMeta{Name: name, Labels: map[string]string{spec.LabelZone: name[len("node-"):]}},
			Status:   spec.NodeStatus{Ready: true, AllocatableMilliCPU: 4000, AllocatableMemMB: 4096},
		}
		if err := r.c.Create(node); err != nil {
			t.Fatal(err)
		}
	}
	// Both hooks stay in place for good: the request hook sees every bind the
	// scheduler issues, and the two fault the ones the program asked for.
	srv.SetRequestHook(func(m *apiserver.Message) apiserver.Action {
		r.binding = m.Source == "scheduler" && m.Kind == spec.KindPod && m.Verb == apiserver.VerbUpdate
		if !r.binding {
			return apiserver.Pass
		}
		var pod spec.Pod
		if err := codec.Unmarshal(m.Encoded(), &pod); err != nil {
			t.Fatalf("%s: decoding a bind: %v", r.step, err)
		}
		r.got = append(r.got, bind{podKey(&pod), pod.Spec.NodeName})
		if r.refuse > 0 {
			r.refuse--
			r.refused++
			return apiserver.Drop
		}
		return apiserver.Pass
	})
	srv.SetStoreWriteHook(func(*apiserver.Message) apiserver.Action {
		if r.binding && r.lose > 0 {
			r.lose--
			r.lost++
			return apiserver.Drop
		}
		return apiserver.Pass
	})
	r.s.Start()
	return r
}

// fits is feasible, written out again.
func fits(pod *spec.Pod, node *spec.Node, freeCPU, freeMem int64) bool {
	if !node.Status.Ready || node.Spec.Unschedulable {
		return false
	}
	for k, v := range pod.Spec.NodeSelector {
		if node.Metadata.Labels[k] != v {
			return false
		}
	}
	for _, taint := range node.Spec.Taints {
		if taint.Effect != spec.TaintNoSchedule && taint.Effect != spec.TaintNoExecute {
			continue
		}
		if !pod.Tolerates(taint) {
			return false
		}
	}
	return pod.RequestsMilliCPU() <= freeCPU && pod.RequestsMemMB() <= freeMem
}

type freeNode struct {
	node     *spec.Node
	cpu, mem int64
}

// free is every node of the scheduler's view with what its charges leave.
func (r *retryRig) free() []*freeNode {
	var nodes []*freeNode
	r.s.views.ForEach(spec.KindNode, "", func(o spec.Object) bool {
		node := o.(*spec.Node)
		u := r.s.nodeUsed[node.Metadata.Name]
		nodes = append(nodes, &freeNode{node, node.Status.AllocatableMilliCPU - u.cpu, node.Status.AllocatableMemMB - u.mem})
		return true
	})
	return nodes
}

// eachPending calls fn for every pending pod that is still unassigned and
// active, in view order, with its entry.
func (r *retryRig) eachPending(fn func(pod *spec.Pod, at uint64)) {
	r.s.views.ForEach(spec.KindPod, "", func(o spec.Object) bool {
		pod := o.(*spec.Pod)
		if at, ok := r.s.pending[podKey(pod)]; ok && pod.Spec.NodeName == "" && pod.Active() {
			fn(pod, at)
		}
		return true
	})
}

// want is the from-scratch pass: every pending pod, in view order, goes to the
// feasible node with the most free CPU and memory (the first of equals), and a
// bind charges the node for the pods after it unless the server refuses it.
func (r *retryRig) want() []bind {
	if !r.s.running {
		return nil
	}
	nodes := r.free()
	refuse := r.refuse
	var binds []bind
	r.eachPending(func(pod *spec.Pod, _ uint64) {
		r.brute++
		var best *freeNode
		for _, n := range nodes {
			if fits(pod, n.node, n.cpu, n.mem) && (best == nil || n.cpu+n.mem > best.cpu+best.mem) {
				best = n
			}
		}
		if best == nil {
			return
		}
		binds = append(binds, bind{podKey(pod), best.node.Metadata.Name})
		if refuse > 0 {
			refuse--
			return
		}
		best.cpu -= pod.RequestsMilliCPU()
		best.mem -= pod.RequestsMemMB()
	})
	return binds
}

// check holds the memo to what it claims, against the views and sums as they
// are now: an entry equal to gen names a pod without a priority that fits no
// node, untried counts the other entries, and none of those sorts below low.
func (r *retryRig) check(when string) {
	r.t.Helper()
	if !r.s.running {
		return
	}
	nodes := r.free()
	r.eachPending(func(pod *spec.Pod, at uint64) {
		if at != r.s.gen {
			return
		}
		r.shelved[podKey(pod)] = true
		if pod.Spec.Priority > 0 {
			r.t.Fatalf("%s, %s: %s has a priority and a kept verdict", r.step, when, podKey(pod))
		}
		for _, n := range nodes {
			if fits(pod, n.node, n.cpu, n.mem) {
				r.t.Fatalf("%s, %s: %s is written off at generation %d and fits %s", r.step, when, podKey(pod), at, n.node.Metadata.Name)
			}
		}
	})
	untried := 0
	for key, at := range r.s.pending {
		if at != r.s.gen {
			untried++
			if key < r.s.low {
				r.t.Fatalf("%s, %s: untried key %q sorts below low %q, where a cycle's walk starts", r.step, when, key, r.s.low)
			}
		}
		if _, ok := r.s.views.GetByKey(spec.KindPod, key); !ok {
			r.t.Fatalf("%s, %s: pending key %q is not in the pod view", r.step, when, key)
		}
	}
	if untried != r.s.untried {
		r.t.Fatalf("%s, %s: untried = %d, and %d entries differ from gen", r.step, when, r.s.untried, untried)
	}
}

// tick is one scheduling period: the events of the operation before it arrive,
// the cycle runs, and its binds' events arrive before the next operation reads
// the server. The cycle is called from here, with the scheduler's own ticker
// stopped, so that the reference is taken from exactly the state it starts in.
func (r *retryRig) tick() {
	r.t.Helper()
	r.s.ticker.Stop()
	r.loop.RunUntil(r.loop.Now() + schedulePeriod/2)
	r.s.ticker.Stop() // a restart that ended just now armed a new one
	r.check("before the cycle")
	want := r.want()
	r.got = r.got[:0]
	before := r.s.attempts
	r.s.scheduleAll()
	if r.s.running {
		r.cycles++
		r.attempts += r.s.attempts - before
	}
	if !slices.Equal(r.got, want) {
		r.t.Fatalf("%s: the cycle at %v bound %v, a pass over all %d pending pods binds %v", r.step, r.loop.Now(), r.got, len(r.s.pending), want)
	}
	for _, b := range r.got {
		if r.log {
			r.t.Logf("%s at %v: %s → %s", r.step, r.loop.Now(), b.key, b.node)
		}
		if r.shelved[b.key] {
			r.revived++
			delete(r.shelved, b.key)
		}
	}
	r.check("after the cycle")
	r.loop.RunUntil(r.loop.Now() + schedulePeriod/2)
}

func (r *retryRig) create(cpu int64, mutate func(*spec.Pod)) {
	r.t.Helper()
	pod := pendingPod(fmt.Sprintf("p%04d", r.created), cpu)
	r.created++
	if mutate != nil {
		mutate(pod)
	}
	r.must(r.c.Create(pod))
}

// pick returns a private copy of a pod for an operation to act on: with
// assigned set, of the active pods on node arg%3 the one numbered arg/3 (modulo
// their number); otherwise the arg-th active pod on no node. Server order; nil
// if there is none.
func (r *retryRig) pick(assigned bool, arg int) *spec.Pod {
	on := ""
	if assigned {
		on, arg = rigNodes[arg%len(rigNodes)], arg/len(rigNodes)
	}
	var pods []*spec.Pod
	for _, o := range r.c.List(spec.KindPod, "") {
		if pod := o.(*spec.Pod); pod.Spec.NodeName == on && pod.Active() {
			pods = append(pods, pod)
		}
	}
	if len(pods) == 0 {
		return nil
	}
	return spec.CloneForWriteAs(pods[arg%len(pods)])
}

func (r *retryRig) node(arg int) *spec.Node {
	r.t.Helper()
	obj, err := r.c.Get(spec.KindNode, "", rigNodes[arg%len(rigNodes)])
	if err != nil {
		r.t.Fatalf("%s: %v", r.step, err)
	}
	return spec.CloneForWriteAs(obj.(*spec.Node))
}

func (r *retryRig) must(err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatalf("%s: %v", r.step, err)
	}
}

// do performs one operation and the cycle after it.
func (r *retryRig) do(i int, b byte) {
	r.t.Helper()
	op, arg := int(b&0x0f), int(b>>4)
	r.step = fmt.Sprintf("step %d (op %d, arg %d)", i, op, arg)
	switch op {
	case opTick:
		for ; arg > 0; arg-- {
			r.tick()
		}
		r.tick()
	case opCreateSmall:
		for ; arg >= 0; arg-- {
			r.create(1000, nil)
		}
	case opCreateBig:
		for ; arg >= 0; arg-- {
			r.create(2500, nil)
		}
	case opCreatePicky:
		zone := []string{"a", "b", "c", "nowhere"}[arg%4]
		r.create(500, func(p *spec.Pod) { p.Spec.NodeSelector = map[string]string{spec.LabelZone: zone} })
	case opCreateUrgent:
		r.create(2500, func(p *spec.Pod) { p.Spec.Priority = 10 })
	case opDeleteBound:
		if pod := r.pick(true, arg); pod != nil {
			r.must(r.c.Delete(spec.KindPod, pod.Metadata.Namespace, pod.Metadata.Name))
		}
	case opShrinkBound:
		if pod := r.pick(true, arg); pod != nil {
			pod.Spec.Containers[0].RequestsMilliCPU = 100
			r.must(r.c.Update(pod))
		}
	case opGrowBound:
		if pod := r.pick(true, arg); pod != nil {
			pod.Spec.Containers[0].RequestsMilliCPU += 500
			r.must(r.c.Update(pod))
		}
	case opCordon:
		node := r.node(arg)
		node.Spec.Unschedulable = !node.Spec.Unschedulable
		r.must(r.c.Update(node))
	case opHeartbeat:
		node := r.node(arg)
		node.Status.LastHeartbeatMillis = r.loop.Time().UnixMilli()
		r.must(r.c.UpdateStatus(node))
	case opRewriteNode:
		// Bytes changed under the store: no revision, no event, no Generation.
		// The apiserver's re-list is what makes them visible.
		name := rigNodes[arg%len(rigNodes)]
		r.st.CorruptAtRest(spec.Key(spec.KindNode, "", name), func(data []byte) []byte {
			var node spec.Node
			if err := codec.Unmarshal(data, &node); err != nil {
				r.t.Fatalf("%s: %v", r.step, err)
			}
			if node.Metadata.Labels[spec.LabelZone] == "nowhere" {
				node.Metadata.Labels = map[string]string{spec.LabelZone: name[len("node-"):]}
				node.Status.AllocatableMilliCPU = 4000
			} else {
				node.Metadata.Labels = map[string]string{spec.LabelZone: "nowhere"}
				node.Status.AllocatableMilliCPU = 9000
			}
			out, err := codec.Marshal(&node)
			if err != nil {
				r.t.Fatalf("%s: %v", r.step, err)
			}
			return out
		})
		r.srv.Restart()
	case opRetarget:
		if pod := r.pick(false, arg); pod != nil {
			if pod.Spec.NodeSelector["disk"] == "" {
				pod.Spec.NodeSelector = map[string]string{"disk": "ssd"}
			} else {
				pod.Spec.NodeSelector = nil
			}
			r.must(r.c.Update(pod))
		}
	case opLoseBind:
		r.lose++
	case opRefuseBind:
		r.refuse++
	case opMoveBound:
		if pod := r.pick(true, arg); pod != nil {
			moveInStore(r.t, r.st, pod, "ghost-node")
		}
	case opFailPending:
		if pod := r.pick(false, arg); pod != nil {
			pod.Status.Phase = spec.PodFailed
			r.must(r.c.UpdateStatus(pod))
		}
	}
	if op != opTick {
		r.tick()
	}
}

func runProgram(t testing.TB, prog []byte) *retryRig {
	t.Helper()
	r := newRetryRig(t)
	r.log = testing.Verbose()
	r.step = "start"
	r.tick()
	for i, b := range prog {
		r.do(i, b)
	}
	return r
}

// The scripted churn: every way an input of a verdict moves, and every verdict
// that must not be kept, with the cycle after each checked against the pass
// over all pending pods — and a last look at whether the script still meets
// what it was written to meet.
func TestSkippedPodsCouldNotHaveBound(t *testing.T) {
	r := runProgram(t, churn)
	if r.lost != 1 || r.refused != 1 || r.s.Restarts() != 1 {
		t.Errorf("%d binds lost, %d refused, %d restarts: the script means one of each", r.lost, r.refused, r.s.Restarts())
	}
	if !r.s.running {
		t.Error("the script ends with the scheduler down")
	}
	// The pod behind the lost bind took its place a cycle later, and the pod
	// of the lost bind went where its own second event let it.
	for name, want := range map[string]string{"p0012": "node-c", "p0011": "node-b"} {
		if got := nodeOf(t, r.c, name); got != want {
			t.Errorf("pod %s is on %q, the script means %q", name, got, want)
		}
	}
	if r.revived < 8 {
		t.Errorf("%d pods were bound after having been written off, the script means at least 8", r.revived)
	}
	if r.attempts*3 > r.brute {
		t.Errorf("%d attempts in %d cycles where looking at every pending pod makes %d: the backlog is not being skipped", r.attempts, r.cycles, r.brute)
	}

	r = runProgram(t, moved)
	if r.s.Restarts() != 1 || r.revived != 1 {
		t.Errorf("a moved pod: %d restarts and %d pods bound after having been written off, want 1 and 1", r.s.Restarts(), r.revived)
	}
}

// FuzzSchedulerRetry holds the same two invariants on whatever program the
// fuzzer finds.
func FuzzSchedulerRetry(f *testing.F) {
	f.Add(churn)
	f.Add(moved)
	f.Add([]byte{step(opCreateSmall, 11), step(opCreateBig, 3), step(opRewriteNode, 0), step(opDeleteBound, 7), step(opRewriteNode, 0)})
	f.Add([]byte{step(opCreateSmall, 9), step(opLoseBind, 0), step(opRefuseBind, 0), step(opCreateSmall, 3), step(opCreateUrgent, 0), step(opTick, 12)})
	// The lost bind's pod is pending again, behind a memoized pod that sorts
	// after it: its enqueue must lower where the next walk starts.
	f.Add([]byte{step(opCreateBig, 3), step(opCreateBig, 3), step(opLoseBind, 2), step(opRewriteNode, 5), step(opRewriteNode, 5)})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 96 {
			prog = prog[:96]
		}
		runProgram(t, prog)
	})
}

// A backlog that fits nowhere costs one attempt per pod, not one per pod per
// cycle: 200 pods, ten seconds without an event, on the scheduler's own ticker.
func TestFullClusterBacklogIsFreePerTick(t *testing.T) {
	loop, c, s := newScheduler(t)
	before := s.Attempts()
	for i := 0; i < 200; i++ {
		if err := c.Create(pendingPod(fmt.Sprintf("huge-%03d", i), 9000)); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunUntil(loop.Now() + 10*time.Second)
	if got := s.Attempts() - before; got != 200 {
		t.Fatalf("%d attempts for 200 pods that fit nowhere in 10 s without an event, want 200 (20,000 without the memo)", got)
	}
	if len(s.pending) != 200 || s.untried != 0 {
		t.Fatalf("%d pending, %d untried, want 200 and 0", len(s.pending), s.untried)
	}
	// One event that gives capacity back, and all of them are looked at again.
	if err := c.Create(pendingPod("small", 500)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	if err := c.Delete(spec.KindPod, spec.DefaultNamespace, "small"); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	if got := s.Attempts() - before; got != 200+1+200 {
		t.Fatalf("%d attempts after one bind and one release, want %d", got, 200+1+200)
	}
}
