package controller

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// refDaemonSetSync is the DaemonSet sync as it was before it grouped pods by
// node position: a map of pods by node name, filled by the pod walk and
// emptied by the node walk, the names left in it swept in first-seen order,
// and a toleration probe built per node. It is the reference the grouping
// tests hold the sync to; it is not kept fast.
func refDaemonSetSync(c *daemonSetController, key string) {
	ns, _ := spec.SplitNamespacedName(key)
	obj, ok := c.m.views.GetByKey(spec.KindDaemonSet, key)
	if !ok {
		return
	}
	ds := obj.(*spec.DaemonSet)

	podsByNode := make(map[string][]*spec.Pod)
	var nodeSeen []string
	sel := ds.Spec.Selector.AppendPairs(nil)
	c.m.views.ForEach(spec.KindPod, ns, func(po spec.Object) bool {
		pod := po.(*spec.Pod)
		if !pod.Active() {
			return true
		}
		ref := pod.Metadata.ControllerOf()
		if ref == nil || ref.UID != ds.Metadata.UID {
			return true
		}
		if !spec.PairsMatch(sel, pod.Metadata.Labels) {
			c.m.releasePod(pod)
			return true
		}
		if _, seen := podsByNode[pod.Spec.NodeName]; !seen {
			nodeSeen = append(nodeSeen, pod.Spec.NodeName)
		}
		podsByNode[pod.Spec.NodeName] = append(podsByNode[pod.Spec.NodeName], pod)
		return true
	})

	var desired, current, ready int64
	c.m.views.ForEach(spec.KindNode, "", func(no spec.Object) bool {
		node := no.(*spec.Node)
		eligible := refNodeEligible(ds, node)
		pods := podsByNode[node.Metadata.Name]
		delete(podsByNode, node.Metadata.Name)
		if !eligible {
			for _, pod := range pods {
				_ = c.m.client.Delete(spec.KindPod, ns, pod.Metadata.Name)
			}
			return true
		}
		desired++
		switch {
		case len(pods) == 0:
			pod := c.m.childPod(spec.KindDaemonSet, &ds.Metadata, &ds.Spec.Template)
			pod.Spec.NodeName = node.Metadata.Name
			_ = c.m.client.Create(pod)
		case len(pods) > 1:
			for _, pod := range podsToDelete(pods, len(pods)-1) {
				_ = c.m.client.Delete(spec.KindPod, ns, pod.Metadata.Name)
			}
			current++
		default:
			current++
			if pods[0].Status.Ready {
				ready++
			}
		}
		return true
	})
	for _, name := range nodeSeen {
		for _, pod := range podsByNode[name] {
			_ = c.m.client.Delete(spec.KindPod, ns, pod.Metadata.Name)
		}
	}
	c.updateStatus(ds, desired, current, ready)
}

func refNodeEligible(ds *spec.DaemonSet, node *spec.Node) bool {
	if node.Spec.Unschedulable {
		return false
	}
	for k, v := range ds.Spec.Template.Spec.NodeSelector {
		if node.Metadata.Labels[k] != v {
			return false
		}
	}
	probe := spec.Pod{Spec: ds.Spec.Template.Spec}
	for _, taint := range node.Spec.Taints {
		if taint.Effect == spec.TaintNoSchedule && !probe.Tolerates(taint) {
			return false
		}
	}
	return true
}

const (
	dsNamespace = spec.SystemNamespace
	dsUID       = "uid-ds"
)

var (
	// dsNodeNames are the names nodes take. A node in namespace "x" (a
	// flipped namespace) shares its name with the node outside it, and sorts
	// after it in the view.
	dsNodeNames = []string{"n0", "n1", "n2", "n3"}
	dsNodeNSs   = []string{"", "", "x"}
	// dsPodNodes are the nodes pods name: every node name, two no node
	// holds, and none.
	dsPodNodes = append(slices.Clone(dsNodeNames), "ghost-0", "ghost-1", "")
	dsTaints   = []spec.Taint{
		{Key: "dedicated", Effect: spec.TaintNoSchedule}, // tolerated by the template
		{Key: "gpu", Effect: spec.TaintNoSchedule},       // not tolerated
		{Key: "gpu", Effect: spec.TaintNoExecute},        // not a placement taint
	}
)

// dsSide is one manager, not leading, over a bare apiserver: its views follow
// the store, and a sync is called by hand. The request hook records every
// write a sync makes, in order, with its bytes.
type dsSide struct {
	loop  *sim.Loop
	st    *store.Store
	m     *Manager
	calls []string
	// status is the last status the sync wrote, as desired/current/ready.
	status string
}

func newDSSide() *dsSide {
	loop := sim.NewLoop(1)
	rep := store.NewReplicated(loop, 1, nil)
	srv := apiserver.New(loop, rep, nil)
	s := &dsSide{loop: loop, st: rep.Replica(0), m: NewManager(loop, srv.Endpoints(), "kcm-0")}
	srv.SetRequestHook(func(msg *apiserver.Message) apiserver.Action {
		s.calls = append(s.calls, fmt.Sprintf("%s %s %s/%s %x", msg.Verb, msg.Kind, msg.Namespace, msg.Name, msg.Encoded()))
		if msg.Verb == apiserver.VerbUpdateStatus && msg.Kind == spec.KindDaemonSet {
			var ds spec.DaemonSet
			if err := codec.Unmarshal(msg.Encoded(), &ds); err == nil {
				s.status = fmt.Sprintf("%d/%d/%d", ds.Status.DesiredNumber, ds.Status.CurrentNumber, ds.Status.NumberReady)
			}
		}
		return apiserver.Pass
	})
	return s
}

// dsPair drives the sync on one side and the reference on the other with one
// program of store writes, comparing every sync's writes.
type dsPair struct {
	t     testing.TB
	sides [2]*dsSide
	step  int
	seq   int
	// tally counts what the compared syncs did, by kind of write.
	tally map[string]int
}

func newDSPair(t testing.TB) *dsPair {
	return &dsPair{t: t, sides: [2]*dsSide{newDSSide(), newDSSide()}, tally: make(map[string]int)}
}

// put writes obj to both stores directly, past validation (a corrupted
// namespace or node name is what the store channel writes), and delivers it.
func (p *dsPair) put(obj spec.Object) {
	meta := obj.Meta()
	data, err := codec.Marshal(obj)
	if err != nil {
		p.t.Fatal(err)
	}
	for _, s := range p.sides {
		if _, err := s.st.Put(spec.Key(obj.Kind(), meta.Namespace, meta.Name), obj.Kind(), data); err != nil {
			p.t.Fatal(err)
		}
		s.loop.RunUntil(s.loop.Now() + 10*time.Millisecond)
	}
}

func (p *dsPair) delete(kind spec.Kind, ns, name string) {
	for _, s := range p.sides {
		s.st.Delete(spec.Key(kind, ns, name))
		s.loop.RunUntil(s.loop.Now() + 10*time.Millisecond)
	}
}

func dsTemplate() spec.PodTemplate {
	return spec.PodTemplate{
		Labels: map[string]string{spec.LabelApp: "agent"},
		Spec: spec.PodSpec{
			Containers: []spec.Container{{
				Name: "agent", Image: "registry.local/agent:1", Command: []string{"run"},
				RequestsMilliCPU: 50, RequestsMemMB: 32,
			}},
			Tolerations: []spec.Toleration{{Key: "dedicated", Effect: spec.TaintNoSchedule}},
		},
	}
}

// putDaemonSet writes the DaemonSet with a status no sync computes, so that
// every sync writes the status it counted.
func (p *dsPair) putDaemonSet(nodeSelector bool) {
	tpl := dsTemplate()
	if nodeSelector {
		tpl.Spec.NodeSelector = map[string]string{"role": "worker"}
	}
	p.put(&spec.DaemonSet{
		Metadata: spec.ObjectMeta{Name: "agent", Namespace: dsNamespace, UID: dsUID},
		Spec: spec.DaemonSetSpec{
			Selector: spec.LabelSelector{MatchLabels: map[string]string{spec.LabelApp: "agent"}},
			Template: tpl,
		},
		Status: spec.DaemonSetStatus{DesiredNumber: -1, CurrentNumber: -1, NumberReady: -1},
	})
}

func (p *dsPair) putNode(next func(int) int) {
	node := &spec.Node{Metadata: spec.ObjectMeta{
		Name:      dsNodeNames[next(len(dsNodeNames))],
		Namespace: dsNodeNSs[next(len(dsNodeNSs))],
		Labels:    map[string]string{},
	}}
	if next(4) != 0 {
		node.Metadata.Labels["role"] = "worker"
	}
	node.Spec.Unschedulable = next(6) == 0
	if next(3) == 0 {
		node.Spec.Taints = []spec.Taint{dsTaints[next(len(dsTaints))]}
	}
	node.Status.Ready = true
	p.put(node)
}

// putPods writes 0-3 pods naming one node: mostly the DaemonSet's, some
// foreign (another owner, or none), mislabeled, finished or in another
// namespace.
func (p *dsPair) putPods(next func(int) int) {
	nodeName := dsPodNodes[next(len(dsPodNodes))]
	for n := next(4); n > 0; n-- {
		p.seq++
		pod := &spec.Pod{
			Metadata: spec.ObjectMeta{
				Name:          fmt.Sprintf("p-%03d", p.seq),
				Namespace:     dsNamespace,
				UID:           fmt.Sprintf("uid-p-%d", p.seq),
				Labels:        map[string]string{spec.LabelApp: "agent"},
				CreatedMillis: int64(next(4)),
			},
			Spec:   dsTemplate().Spec,
			Status: spec.PodStatus{Phase: spec.PodRunning, Ready: next(3) != 0},
		}
		pod.Spec.NodeName = nodeName
		owner := dsUID
		switch next(10) {
		case 0:
			owner = "uid-other"
		case 1:
			owner = ""
		case 2:
			pod.Metadata.Labels[spec.LabelApp] = "mislabeled"
		case 3:
			pod.Status.Phase = spec.PodFailed
		case 4:
			pod.Metadata.Namespace = spec.DefaultNamespace
		}
		if owner != "" {
			pod.Metadata.OwnerReferences = []spec.OwnerReference{controllerRef(spec.KindDaemonSet, "agent", owner)}
		}
		p.put(pod)
	}
}

// sync runs the sync on side 0 and the reference on side 1, holds their
// writes and counted status equal, and delivers the writes.
func (p *dsPair) sync(what string) {
	p.t.Helper()
	p.step++
	key := dsNamespace + "/agent"
	a, b := p.sides[0], p.sides[1]
	a.calls, b.calls, a.status, b.status = a.calls[:0], b.calls[:0], "", ""
	a.m.daemonSets.sync(key)
	refDaemonSetSync(b.m.daemonSets, key)
	for i := 0; i < max(len(a.calls), len(b.calls)); i++ {
		var x, y string
		if i < len(a.calls) {
			x = a.calls[i]
		}
		if i < len(b.calls) {
			y = b.calls[i]
		}
		if x != y {
			p.t.Fatalf("step %d (%s): write %d of %d is %.80q, the reference's (of %d) %.80q", p.step, what, i, len(a.calls), x, len(b.calls), y)
		}
	}
	if a.status != b.status {
		p.t.Fatalf("step %d (%s): status %s, the reference counts %s", p.step, what, a.status, b.status)
	}
	for _, c := range a.calls {
		var verb string
		fmt.Sscan(c, &verb)
		p.tally[verb]++
	}
	for _, s := range p.sides {
		s.loop.RunUntil(s.loop.Now() + 100*time.Millisecond)
	}
}

// run interprets data as a program: a cluster of nodes and pods, then node
// and pod writes between syncs, each sync compared.
func (p *dsPair) run(data []byte) {
	p.t.Helper()
	pos := 0
	next := func(n int) int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1]) % n
	}
	p.putDaemonSet(next(2) == 0)
	for n := 2 + next(5); n > 0; n-- {
		p.putNode(next)
	}
	for n := next(8); n > 0; n-- {
		p.putPods(next)
	}
	for _, s := range p.sides {
		s.m.views.Start()
	}
	p.sync("first")
	for pos < len(data) {
		switch op := next(10); {
		case op < 2:
			p.putNode(next)
		case op < 3:
			p.delete(spec.KindNode, dsNodeNSs[next(len(dsNodeNSs))], dsNodeNames[next(len(dsNodeNames))])
		case op < 5:
			p.putPods(next)
		case op < 6:
			p.delete(spec.KindPod, dsNamespace, fmt.Sprintf("p-%03d", 1+next(max(p.seq, 1))))
		case op < 7:
			p.putDaemonSet(next(2) == 0)
		default:
			p.putDaemonSet(next(3) == 0)
			p.sync("program")
		}
	}
	p.putDaemonSet(false)
	p.sync("last")
}

// The sync that groups pods by node position acts as the map-based one did:
// on random clusters — duplicate node names, pods on nodes that do not exist,
// ineligible and tainted nodes, 0-3 pods a node, foreign, mislabeled and
// finished pods — and as the node view changes between syncs, it makes the
// same writes in the same order and counts the same status.
func TestDaemonSetGroupingMatchesReference(t *testing.T) {
	tally := make(map[string]int)
	for seed := int64(1); seed <= 150; seed++ {
		data := make([]byte, 120)
		rand.New(rand.NewSource(seed)).Read(data)
		p := newDSPair(t)
		p.run(data)
		for k, n := range p.tally {
			tally[k] += n
		}
	}
	t.Logf("writes over all programs: %v", tally)
	// The programs must make every kind of write, or they test less than
	// they seem: creates for empty nodes, deletes of duplicates, ineligible
	// and absent nodes' pods, updates releasing mislabeled pods.
	for _, verb := range []string{"create", "delete", "update", "update-status"} {
		if tally[verb] < 50 {
			t.Errorf("only %d %s writes over all programs: %v", tally[verb], verb, tally)
		}
	}
}

func FuzzDaemonSetGrouping(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 120)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		newDSPair(t).run(data)
	})
}
