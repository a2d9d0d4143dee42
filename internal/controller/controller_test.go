package controller

import (
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

// harness runs a manager, leading, against a bare apiserver with two ready
// nodes; there are no kubelets, so pods stay Pending unless a test sets status
// explicitly.
type harness struct {
	loop *sim.Loop
	st   *store.Store
	srv  *apiserver.Server
	c    *apiserver.Client
	m    *Manager
}

func newHarness(t testing.TB) *harness {
	t.Helper()
	loop := sim.NewLoop(1)
	st := store.NewReplicated(loop, 1, nil)
	srv := apiserver.New(loop, st, nil)
	m := NewManager(loop, srv.Endpoints(), "kcm-0")
	h := &harness{loop: loop, st: st.Replica(0), srv: srv, c: srv.ClientFor("test"), m: m}
	for _, name := range []string{"worker-0", "worker-1"} {
		node := &spec.Node{
			Metadata: spec.ObjectMeta{Name: name},
			Status: spec.NodeStatus{Ready: true, AllocatableMilliCPU: 8000,
				AllocatableMemMB: 4096, LastHeartbeatMillis: loop.Time().UnixMilli()},
		}
		if err := h.c.Create(node); err != nil {
			t.Fatal(err)
		}
	}
	m.Start()
	loop.RunUntil(time.Second)
	if !m.IsLeading() {
		t.Fatal("setup: the manager did not win the lease")
	}
	return h
}

func (h *harness) run(d time.Duration) { h.loop.RunUntil(h.loop.Now() + d) }

func (h *harness) heartbeatNodes() {
	for _, name := range []string{"worker-0", "worker-1"} {
		obj, err := h.c.Get(spec.KindNode, "", name)
		if err != nil {
			continue
		}
		node := spec.CloneForStatusAs(obj.(*spec.Node)) // obj is the server's sealed instance
		node.Status.Ready = true
		node.Status.LastHeartbeatMillis = h.loop.Time().UnixMilli()
		_ = h.c.UpdateStatus(node)
	}
}

// keepHeartbeating renews the node's heartbeat every 5 s, well inside the
// grace period, until the timer is stopped.
func (h *harness) keepHeartbeating(name string) sim.Timer {
	return h.loop.Every(5*time.Second, func() {
		obj, err := h.c.Get(spec.KindNode, "", name)
		if err != nil {
			return
		}
		node := spec.CloneForWriteAs(obj.(*spec.Node))
		node.Status.Ready = true
		node.Status.LastHeartbeatMillis = h.loop.Time().UnixMilli()
		_ = h.c.UpdateStatus(node)
	})
}

func testRS(name string, replicas int64) *spec.ReplicaSet {
	return &spec.ReplicaSet{
		Metadata: spec.ObjectMeta{
			Name: name, Namespace: spec.DefaultNamespace,
			Labels: map[string]string{"app": name},
		},
		Spec: spec.ReplicaSetSpec{
			Replicas: replicas,
			Selector: spec.LabelSelector{MatchLabels: map[string]string{"app": name}},
			Template: spec.PodTemplate{
				Labels: map[string]string{"app": name},
				Spec: spec.PodSpec{Containers: []spec.Container{{
					Name: "c", Image: "registry.local/web:1", Command: []string{"serve"},
					RequestsMilliCPU: 100, RequestsMemMB: 64,
				}}},
			},
		},
	}
}

func (h *harness) pods(ns string) []*spec.Pod {
	var out []*spec.Pod
	for _, po := range h.c.List(spec.KindPod, ns) {
		out = append(out, po.(*spec.Pod))
	}
	return out
}

func TestReplicaSetCreatesPods(t *testing.T) {
	h := newHarness(t)
	if err := h.c.Create(testRS("web", 3)); err != nil {
		t.Fatal(err)
	}
	h.run(3 * time.Second)
	pods := h.pods(spec.DefaultNamespace)
	if len(pods) != 3 {
		t.Fatalf("pods = %d, want 3", len(pods))
	}
	for _, pod := range pods {
		ref := pod.Metadata.ControllerOf()
		if ref == nil || ref.Kind != string(spec.KindReplicaSet) || ref.Name != "web" {
			t.Fatalf("pod %s owner = %+v", pod.Metadata.Name, ref)
		}
	}
}

func TestReplicaSetScalesDown(t *testing.T) {
	h := newHarness(t)
	if err := h.c.Create(testRS("web", 4)); err != nil {
		t.Fatal(err)
	}
	h.run(3 * time.Second)
	obj, _ := h.c.Get(spec.KindReplicaSet, spec.DefaultNamespace, "web")
	rs := spec.CloneForWriteAs(obj.(*spec.ReplicaSet))
	rs.Spec.Replicas = 1
	if err := h.c.Update(rs); err != nil {
		t.Fatal(err)
	}
	h.run(3 * time.Second)
	if pods := h.pods(spec.DefaultNamespace); len(pods) != 1 {
		t.Fatalf("pods after scale-down = %d, want 1", len(pods))
	}
}

// A pod whose labels no longer match its owner's selector is released (it
// keeps running, orphaned) and replaced — silent over-provisioning.
func TestReplicaSetReleasesMislabeledPod(t *testing.T) {
	h := newHarness(t)
	if err := h.c.Create(testRS("web", 2)); err != nil {
		t.Fatal(err)
	}
	h.run(3 * time.Second)
	pods := h.pods(spec.DefaultNamespace)
	if len(pods) != 2 {
		t.Fatalf("setup pods = %d", len(pods))
	}
	victim := spec.CloneForWriteAs(pods[0])
	victim.Metadata.Labels["app"] = "mislabeled"
	if err := h.c.Update(victim); err != nil {
		t.Fatal(err)
	}
	// The run spans the garbage collector's first pass, which leaves the
	// released pod alone: it names no controller.
	h.run(6 * time.Second)
	pods = h.pods(spec.DefaultNamespace)
	if len(pods) != 3 {
		t.Fatalf("pods after mislabel = %d, want 3 (orphan + replacement)", len(pods))
	}
	obj, _ := h.c.Get(spec.KindPod, spec.DefaultNamespace, victim.Metadata.Name)
	if obj.(*spec.Pod).Metadata.ControllerOf() != nil {
		t.Fatal("mislabeled pod still owned; it must be released")
	}
}

// Orphan pods matching the selector are adopted instead of duplicated.
func TestReplicaSetAdoptsMatchingOrphan(t *testing.T) {
	h := newHarness(t)
	orphan := &spec.Pod{
		Metadata: spec.ObjectMeta{Name: "stray", Namespace: spec.DefaultNamespace,
			Labels: map[string]string{"app": "web"}},
		Spec: spec.PodSpec{Containers: []spec.Container{{
			Name: "c", Image: "registry.local/web:1", Command: []string{"serve"},
		}}},
	}
	if err := h.c.Create(orphan); err != nil {
		t.Fatal(err)
	}
	h.run(time.Second)
	if err := h.c.Create(testRS("web", 2)); err != nil {
		t.Fatal(err)
	}
	h.run(3 * time.Second)
	pods := h.pods(spec.DefaultNamespace)
	if len(pods) != 2 {
		t.Fatalf("pods = %d, want 2 (orphan adopted, one created)", len(pods))
	}
	obj, _ := h.c.Get(spec.KindPod, spec.DefaultNamespace, "stray")
	ref := obj.(*spec.Pod).Metadata.ControllerOf()
	if ref == nil || ref.Name != "web" {
		t.Fatal("orphan not adopted")
	}
}

// A pod whose labels match but whose controller is another ReplicaSet is none
// of this one's business: not adopted (it has a controller), not released (it
// is not ours), not counted towards the replicas.
func TestReplicaSetIgnoresAnothersPod(t *testing.T) {
	h := newHarness(t)
	foreign := &spec.Pod{
		Metadata: spec.ObjectMeta{Name: "foreign", Namespace: spec.DefaultNamespace,
			Labels: map[string]string{"app": "web"},
			OwnerReferences: []spec.OwnerReference{{
				Kind: string(spec.KindReplicaSet), Name: "other", UID: "uid-of-another", Controller: true,
			}}},
		Spec: spec.PodSpec{Containers: []spec.Container{{
			Name: "c", Image: "registry.local/web:1", Command: []string{"serve"},
		}}},
	}
	if err := h.c.Create(foreign); err != nil {
		t.Fatal(err)
	}
	h.run(time.Second)
	if err := h.c.Create(testRS("web", 2)); err != nil {
		t.Fatal(err)
	}
	h.run(3 * time.Second)
	if pods := h.pods(spec.DefaultNamespace); len(pods) != 3 {
		t.Fatalf("pods = %d, want 3 (two of its own beside the foreign one)", len(pods))
	}
	obj, _ := h.c.Get(spec.KindPod, spec.DefaultNamespace, "foreign")
	refs := obj.(*spec.Pod).Metadata.OwnerReferences
	if len(refs) != 1 || refs[0].UID != "uid-of-another" || !refs[0].Controller {
		t.Fatalf("foreign pod's owner references = %+v, want the other controller's, untouched", refs)
	}
	obj, _ = h.c.Get(spec.KindReplicaSet, spec.DefaultNamespace, "web")
	if got := obj.(*spec.ReplicaSet).Status.Replicas; got != 2 {
		t.Fatalf("status.replicas = %d, want 2", got)
	}
	// The other controller does not exist, so the garbage collector's first
	// pass deletes the foreign pod; the ReplicaSet's own two stay.
	h.run(gcInterval)
	if _, err := h.c.Get(spec.KindPod, spec.DefaultNamespace, "foreign"); err == nil {
		t.Fatal("the foreign pod outlived the garbage collector's pass, though its controller does not exist")
	}
	if pods := h.pods(spec.DefaultNamespace); len(pods) != 2 {
		t.Fatalf("pods after the garbage collector's pass = %d, want the ReplicaSet's 2", len(pods))
	}
}

func TestDeploymentCreatesReplicaSetWithHash(t *testing.T) {
	h := newHarness(t)
	d := &spec.Deployment{
		Metadata: spec.ObjectMeta{Name: "web", Namespace: spec.DefaultNamespace,
			Labels: map[string]string{"app": "web"}},
		Spec: spec.DeploymentSpec{
			Replicas: 2,
			Selector: spec.LabelSelector{MatchLabels: map[string]string{"app": "web"}},
			Template: testRS("web", 0).Spec.Template,
			MaxSurge: 1,
		},
	}
	if err := h.c.Create(d); err != nil {
		t.Fatal(err)
	}
	h.run(3 * time.Second)
	rss := h.c.List(spec.KindReplicaSet, spec.DefaultNamespace)
	if len(rss) != 1 {
		t.Fatalf("replicasets = %d, want 1", len(rss))
	}
	rs := rss[0].(*spec.ReplicaSet)
	if rs.Metadata.Labels[spec.LabelPodHash] == "" {
		t.Fatal("replica set missing pod-template-hash")
	}
	if rs.Spec.Replicas != 2 {
		t.Fatalf("rs replicas = %d, want 2", rs.Spec.Replicas)
	}
	if len(h.pods(spec.DefaultNamespace)) != 2 {
		t.Fatal("deployment pods not created")
	}
}

func TestDeploymentRollingUpdateCreatesNewRS(t *testing.T) {
	h := newHarness(t)
	d := &spec.Deployment{
		Metadata: spec.ObjectMeta{Name: "web", Namespace: spec.DefaultNamespace},
		Spec: spec.DeploymentSpec{
			Replicas: 2,
			Selector: spec.LabelSelector{MatchLabels: map[string]string{"app": "web"}},
			Template: testRS("web", 0).Spec.Template,
			MaxSurge: 1,
		},
	}
	if err := h.c.Create(d); err != nil {
		t.Fatal(err)
	}
	h.run(3 * time.Second)
	obj, _ := h.c.Get(spec.KindDeployment, spec.DefaultNamespace, "web")
	deploy := spec.CloneForWriteAs(obj.(*spec.Deployment))
	deploy.Spec.Template.Spec.Containers[0].Image = "registry.local/web:2"
	if err := h.c.Update(deploy); err != nil {
		t.Fatal(err)
	}
	h.run(5 * time.Second)
	rss := h.c.List(spec.KindReplicaSet, spec.DefaultNamespace)
	if len(rss) != 2 {
		t.Fatalf("replicasets after template change = %d, want 2", len(rss))
	}
}

func TestEndpointsTrackReadyPods(t *testing.T) {
	h := newHarness(t)
	if err := h.c.Create(testRS("web", 2)); err != nil {
		t.Fatal(err)
	}
	svc := &spec.Service{
		Metadata: spec.ObjectMeta{Name: "web", Namespace: spec.DefaultNamespace},
		Spec: spec.ServiceSpec{
			Selector: map[string]string{"app": "web"},
			Ports:    []spec.ServicePort{{Port: 80, TargetPort: 8080, Protocol: "TCP"}},
		},
	}
	if err := h.c.Create(svc); err != nil {
		t.Fatal(err)
	}
	h.run(3 * time.Second)
	obj, err := h.c.Get(spec.KindEndpoints, spec.DefaultNamespace, "web")
	if err != nil {
		t.Fatal(err)
	}
	if obj.(*spec.Endpoints).Count() != 0 {
		t.Fatal("endpoints contain non-ready pods")
	}
	// Mark one pod ready (playing kubelet).
	pod := spec.CloneForStatusAs(h.pods(spec.DefaultNamespace)[0])
	pod.Status.Ready = true
	pod.Status.Phase = spec.PodRunning
	pod.Status.PodIP = "10.244.1.5"
	if err := h.c.UpdateStatus(pod); err != nil {
		t.Fatal(err)
	}
	h.run(3 * time.Second)
	obj, _ = h.c.Get(spec.KindEndpoints, spec.DefaultNamespace, "web")
	ep := obj.(*spec.Endpoints)
	if ep.Count() != 1 {
		t.Fatalf("endpoints = %d, want 1", ep.Count())
	}
	if ep.Subsets[0].Addresses[0].IP != "10.244.1.5" {
		t.Fatalf("endpoint IP = %q", ep.Subsets[0].Addresses[0].IP)
	}
}

func TestGarbageCollectorRemovesOrphans(t *testing.T) {
	h := newHarness(t)
	if err := h.c.Create(testRS("web", 2)); err != nil {
		t.Fatal(err)
	}
	h.run(3 * time.Second)
	// Delete the owner; its pods must be collected.
	if err := h.c.Delete(spec.KindReplicaSet, spec.DefaultNamespace, "web"); err != nil {
		t.Fatal(err)
	}
	h.run(2*gcInterval + time.Second)
	if pods := h.pods(spec.DefaultNamespace); len(pods) != 0 {
		t.Fatalf("pods after owner deletion = %d, want 0", len(pods))
	}
}

// A corrupted ownerReference UID makes a healthy pod look orphaned: the GC
// deletes it and the controller respawns a replacement (dependency-field
// failure mode).
func TestGarbageCollectorDeletesOnUIDMismatch(t *testing.T) {
	h := newHarness(t)
	if err := h.c.Create(testRS("web", 1)); err != nil {
		t.Fatal(err)
	}
	h.run(3 * time.Second)
	pods := h.pods(spec.DefaultNamespace)
	if len(pods) != 1 {
		t.Fatalf("setup pods = %d", len(pods))
	}
	pod := spec.CloneForWriteAs(pods[0])
	name := pod.Metadata.Name
	pod.Metadata.OwnerReferences[0].UID = "uid-999999"
	if err := h.c.Update(pod); err != nil {
		t.Fatal(err)
	}
	h.run(2*gcInterval + 2*time.Second)
	if _, err := h.c.Get(spec.KindPod, spec.DefaultNamespace, name); err == nil {
		t.Fatal("pod with corrupted owner UID survived GC")
	}
	// The ReplicaSet replaced it.
	if pods := h.pods(spec.DefaultNamespace); len(pods) != 1 {
		t.Fatalf("pods after GC churn = %d, want 1 replacement", len(pods))
	}
}

func TestPodGCRemovesPodsOnMissingNodes(t *testing.T) {
	h := newHarness(t)
	pod := &spec.Pod{
		Metadata: spec.ObjectMeta{Name: "stranded", Namespace: spec.DefaultNamespace},
		Spec: spec.PodSpec{
			NodeName: "ghost-node",
			Containers: []spec.Container{{
				Name: "c", Image: "registry.local/web:1", Command: []string{"serve"},
			}},
		},
	}
	if err := h.c.Create(pod); err != nil {
		t.Fatal(err)
	}
	h.run(podGCMinAge + 2*gcInterval + time.Second)
	if _, err := h.c.Get(spec.KindPod, spec.DefaultNamespace, "stranded"); err == nil {
		t.Fatal("pod on missing node survived pod GC")
	}
}

// A node the pod GC saw on one tick and that is gone by the next no longer
// holds its pods: the GC reads the node view afresh on every tick.
func TestPodGCForgetsDeletedNodes(t *testing.T) {
	h := newHarness(t)
	pod := &spec.Pod{
		Metadata: spec.ObjectMeta{Name: "left", Namespace: spec.DefaultNamespace},
		Spec: spec.PodSpec{
			NodeName: "worker-1",
			Containers: []spec.Container{{
				Name: "c", Image: "registry.local/web:1", Command: []string{"serve"},
			}},
		},
	}
	if err := h.c.Create(pod); err != nil {
		t.Fatal(err)
	}
	h.run(gcInterval + time.Second) // a tick sees worker-1 and its pod
	if err := h.c.Delete(spec.KindNode, "", "worker-1"); err != nil {
		t.Fatal(err)
	}
	h.run(podGCMinAge + 2*gcInterval + time.Second)
	if _, err := h.c.Get(spec.KindPod, spec.DefaultNamespace, "left"); err == nil {
		t.Fatal("pod on a deleted node survived pod GC")
	}
}

func TestNodeLifecycleMarksSilentNodeNotReady(t *testing.T) {
	h := newHarness(t)
	// Keep worker-1 heartbeating; let worker-0 go silent.
	defer h.keepHeartbeating("worker-1").Stop()
	h.run(nodeGracePeriod + 15*time.Second)
	obj, _ := h.c.Get(spec.KindNode, "", "worker-0")
	node := obj.(*spec.Node)
	if node.Status.Ready {
		t.Fatal("silent node still Ready")
	}
	tainted := false
	for _, taint := range node.Spec.Taints {
		if taint.Key == taintUnreachable && taint.Effect == spec.TaintNoExecute {
			tainted = true
		}
	}
	if !tainted {
		t.Fatal("silent node not tainted NoExecute")
	}
	obj, _ = h.c.Get(spec.KindNode, "", "worker-1")
	if !obj.(*spec.Node).Status.Ready {
		t.Fatal("heartbeating node marked NotReady")
	}
}

// Full disruption mode (§II-D): when every node looks unhealthy, the fault
// is likelier in the heartbeat path — evictions must stop.
func TestFullDisruptionModeStopsEvictions(t *testing.T) {
	h := newHarness(t)
	if err := h.c.Create(testRS("web", 2)); err != nil {
		t.Fatal(err)
	}
	h.run(3 * time.Second)
	// Bind pods to nodes (no kubelet here).
	for i, pod := range h.pods(spec.DefaultNamespace) {
		pod = spec.CloneForWriteAs(pod)
		pod.Spec.NodeName = []string{"worker-0", "worker-1"}[i%2]
		if err := h.c.Update(pod); err != nil {
			t.Fatal(err)
		}
	}
	// All nodes go silent together.
	h.run(nodeGracePeriod + 20*time.Second)
	if pods := h.pods(spec.DefaultNamespace); len(pods) != 2 {
		t.Fatalf("pods = %d; full disruption mode must suspend evictions", len(pods))
	}
}

// A partial disruption is not full disruption mode: with worker-1 still
// heartbeating, the pods on silent worker-0 are evicted.
func TestEvictionsResumeWithoutFullDisruption(t *testing.T) {
	h := newHarness(t)
	defer h.keepHeartbeating("worker-1").Stop()
	if err := h.c.Create(testRS("web", 2)); err != nil {
		t.Fatal(err)
	}
	h.run(3 * time.Second)
	for _, pod := range h.pods(spec.DefaultNamespace) {
		pod = spec.CloneForWriteAs(pod)
		pod.Spec.NodeName = "worker-0"
		if err := h.c.Update(pod); err != nil {
			t.Fatal(err)
		}
	}
	h.run(nodeGracePeriod + 30*time.Second)
	// The pods were deleted (and the RS recreated them): there must have
	// been deletions.
	deleted := 0
	for _, pod := range h.pods(spec.DefaultNamespace) {
		if pod.Spec.NodeName == "" {
			deleted++ // replacement, not yet bound
		}
	}
	if deleted == 0 {
		t.Fatal("no evictions happened with one node of two heartbeating")
	}
}

func testDS(name string) *spec.DaemonSet {
	return &spec.DaemonSet{
		Metadata: spec.ObjectMeta{Name: name, Namespace: spec.DefaultNamespace,
			Labels: map[string]string{"app": name}},
		Spec: spec.DaemonSetSpec{
			Selector: spec.LabelSelector{MatchLabels: map[string]string{"app": name}},
			Template: spec.PodTemplate{
				Labels: map[string]string{"app": name},
				Spec: spec.PodSpec{Containers: []spec.Container{{
					Name: "a", Image: "registry.local/agent:1", Command: []string{"serve"},
				}}},
			},
		},
	}
}

func TestDaemonSetOnePodPerNode(t *testing.T) {
	h := newHarness(t)
	if err := h.c.Create(testDS("agent")); err != nil {
		t.Fatal(err)
	}
	h.heartbeatNodes()
	h.run(3 * time.Second)
	perNode := map[string]int{}
	for _, pod := range h.pods(spec.DefaultNamespace) {
		perNode[pod.Spec.NodeName]++
	}
	if perNode["worker-0"] != 1 || perNode["worker-1"] != 1 {
		t.Fatalf("daemon pods per node = %v, want one each", perNode)
	}
}

// readyPod creates a running, ready, addressed pod — what a kubelet would
// have made of it — with the given labels.
func (h *harness) readyPod(t testing.TB, ns, name, ip string, labels map[string]string) {
	t.Helper()
	pod := &spec.Pod{
		Metadata: spec.ObjectMeta{Name: name, Namespace: ns, Labels: labels},
		Spec: spec.PodSpec{NodeName: "worker-0", Containers: []spec.Container{{
			Name: "c", Image: "registry.local/web:1", Command: []string{"serve"},
		}}},
	}
	if err := h.c.Create(pod); err != nil {
		t.Fatal(err)
	}
	h.run(10 * time.Millisecond) // reads see the create once the loop has run
	obj, err := h.c.Get(spec.KindPod, ns, name)
	if err != nil {
		t.Fatal(err)
	}
	pod = spec.CloneForWriteAs(obj.(*spec.Pod))
	pod.Status = spec.PodStatus{Phase: spec.PodRunning, Ready: true, PodIP: ip}
	if err := h.c.UpdateStatus(pod); err != nil {
		t.Fatal(err)
	}
}

func (h *harness) service(t testing.TB, ns, name string, selector map[string]string) {
	t.Helper()
	svc := &spec.Service{
		Metadata: spec.ObjectMeta{Name: name, Namespace: ns},
		Spec: spec.ServiceSpec{
			Selector: selector,
			Ports:    []spec.ServicePort{{Port: 80, TargetPort: 8080, Protocol: "TCP"}},
		},
	}
	if err := h.c.Create(svc); err != nil {
		t.Fatal(err)
	}
}

// backends lists the pod names behind a service, in endpoint-table order.
func (h *harness) backends(t testing.TB, ns, name string) []string {
	t.Helper()
	obj, err := h.c.Get(spec.KindEndpoints, ns, name)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sub := range obj.(*spec.Endpoints).Subsets {
		for _, a := range sub.Addresses {
			names = append(names, a.TargetRef.Name)
		}
	}
	return names
}

// Every selector shape syncs by the one namespace scan of the pod view:
// addresses come out in pod-name order, a selector with or without an app
// label sees exactly its pods, and another namespace's pods never qualify.
func TestEndpointsSelectorShapes(t *testing.T) {
	h := newHarness(t)
	ns := spec.DefaultNamespace
	// Created out of name order on purpose.
	h.readyPod(t, ns, "web-c", "10.244.0.3", map[string]string{"app": "web"})
	h.readyPod(t, ns, "db-a", "10.244.0.4", map[string]string{"tier": "back"})
	h.readyPod(t, ns, "web-a", "10.244.0.1", map[string]string{"app": "web", "tier": "front"})
	h.readyPod(t, ns, "web-b", "10.244.0.2", map[string]string{"app": "web", "tier": "back"})
	h.readyPod(t, "other", "web-0", "10.244.0.9", map[string]string{"app": "web", "tier": "back"})

	shapes := []struct {
		svc      string
		selector map[string]string
		want     []string
	}{
		{"by-app", map[string]string{"app": "web"}, []string{"web-a", "web-b", "web-c"}},
		{"by-app-and-tier", map[string]string{"app": "web", "tier": "front"}, []string{"web-a"}},
		{"without-app", map[string]string{"tier": "back"}, []string{"db-a", "web-b"}},
		{"no-match", map[string]string{"app": "nothing"}, nil},
		{"manual", nil, nil}, // selector-less: the controller adds no address
	}
	for _, s := range shapes {
		h.service(t, ns, s.svc, s.selector)
	}
	h.run(time.Second)
	for _, s := range shapes {
		if got := h.backends(t, ns, s.svc); !slices.Equal(got, s.want) {
			t.Errorf("service %s %v: backends %v, want %v", s.svc, s.selector, got, s.want)
		}
	}

	// A pod relabelled out of a selector stops matching the services its
	// event is routed to, so it is the resync that drops its address.
	obj, err := h.c.Get(spec.KindPod, ns, "web-b")
	if err != nil {
		t.Fatal(err)
	}
	pod := spec.CloneForWriteAs(obj.(*spec.Pod))
	pod.Metadata.Labels = map[string]string{"app": "retired"}
	if err := h.c.Update(pod); err != nil {
		t.Fatal(err)
	}
	h.run(resyncInterval + time.Second)
	for svc, want := range map[string][]string{
		"by-app":      {"web-a", "web-c"},
		"without-app": {"db-a"},
	} {
		if got := h.backends(t, ns, svc); !slices.Equal(got, want) {
			t.Errorf("after relabel, service %s: backends %v, want %v", svc, got, want)
		}
	}
}

// A sync that finds nothing to do walks the view and compares in place: its
// allocations must not grow with what it walks. For the endpoints controller
// that is the pods of the namespace, for the DaemonSet controller the nodes.
func TestNoOpSyncAllocationsDoNotScale(t *testing.T) {
	endpointsSync := func(pods int) float64 {
		h := newHarness(t)
		for i := 0; i < pods; i++ {
			h.readyPod(t, spec.DefaultNamespace, fmt.Sprintf("web-%03d", i), fmt.Sprintf("10.244.%d.%d", i/250, i%250+1),
				map[string]string{"app": "web"})
		}
		h.service(t, spec.DefaultNamespace, "web", map[string]string{"app": "web"})
		h.run(time.Second)
		if got := len(h.backends(t, spec.DefaultNamespace, "web")); got != pods {
			t.Fatalf("setup: %d backends, want %d", got, pods)
		}
		h.m.endpoints.sync("default/web") // warm-up: sizes the scratch
		return testing.AllocsPerRun(10, func() { h.m.endpoints.sync("default/web") })
	}
	if few, many := endpointsSync(3), endpointsSync(300); few != many {
		t.Errorf("no-op endpoints sync: %.0f allocs with 3 pods, %.0f with 300", few, many)
	}

	daemonSetSync := func(nodes int) float64 {
		h := newHarness(t)
		for i := 2; i < nodes; i++ { // the harness brings worker-0 and worker-1
			node := &spec.Node{Metadata: spec.ObjectMeta{Name: fmt.Sprintf("worker-%d", i)}}
			if err := h.c.Create(node); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.c.Create(testDS("agent")); err != nil {
			t.Fatal(err)
		}
		h.run(time.Second)
		if got := len(h.pods(spec.DefaultNamespace)); got != nodes {
			t.Fatalf("setup: %d daemon pods, want %d", got, nodes)
		}
		h.m.daemonSets.sync("default/agent")
		return testing.AllocsPerRun(10, func() { h.m.daemonSets.sync("default/agent") })
	}
	if few, many := daemonSetSync(5), daemonSetSync(50); few != many {
		t.Errorf("steady-state DaemonSet sync: %.0f allocs on 5 nodes, %.0f on 50", few, many)
	}
}

// The manager drops node heartbeats before any controller sees them: a
// status-only Node write (generation unchanged) starts no DaemonSet sync and
// no event-driven monitor pass, while a cordon (a generation-bumping Update),
// a new node and a delete start both. The first sighting of a node since the manager
// started or was reset counts as a heartbeat.
func TestNodeHeartbeatsAreGatedOnce(t *testing.T) {
	h := newHarness(t)
	if err := h.c.Create(testDS("agent")); err != nil {
		t.Fatal(err)
	}
	h.run(time.Second)
	syncs, monitors := 0, 0
	sync, monitor := h.m.daemonSets.q.handler, h.m.nodes.monitorFn
	h.m.daemonSets.q.handler = func(key string) { syncs++; sync(key) }
	h.m.nodes.monitorFn = func() { monitors++; monitor() }
	node := func(name string) *spec.Node {
		obj, err := h.c.Get(spec.KindNode, "", name)
		if err != nil {
			t.Fatal(err)
		}
		return obj.(*spec.Node)
	}
	heartbeat := func() error {
		hb := spec.CloneForStatusAs(node("worker-0"))
		hb.Status.LastHeartbeatMillis = h.loop.Time().UnixMilli()
		return h.c.UpdateStatus(hb)
	}
	// Each step runs well inside the periodic resync and monitor periods.
	step := func(name string, write func() error, react bool) {
		t.Helper()
		syncs, monitors = 0, 0
		if err := write(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h.run(200 * time.Millisecond)
		if (syncs > 0) != react || (monitors > 0) != react {
			t.Errorf("%s: %d DaemonSet syncs and %d event-driven monitor passes, want both > 0: %v", name, syncs, monitors, react)
		}
	}
	step("first sighting since the start", heartbeat, false)
	step("heartbeat", heartbeat, false)
	step("cordon", func() error {
		cordoned := spec.CloneForWriteAs(node("worker-0"))
		cordoned.Spec.Unschedulable = true
		return h.c.Update(cordoned)
	}, true)
	step("heartbeat after the cordon", heartbeat, false)
	step("a new node", func() error { return h.c.Create(&spec.Node{Metadata: spec.ObjectMeta{Name: "worker-2"}}) }, true)
	step("delete", func() error { return h.c.Delete(spec.KindNode, "", "worker-1") }, true)

	// After a Reset, a node's next event is its first sighting again, even
	// at a generation the manager has not seen.
	h.m.Reset()
	h.m.running = true // routing as a manager leading again would
	bumped := spec.CloneForWriteAs(node("worker-0"))
	bumped.Metadata.Generation++
	h.m.route(apiserver.WatchEvent{Type: apiserver.Modified, Kind: spec.KindNode, Object: bumped})
	if len(h.m.daemonSets.q.dirty) > 0 || h.m.nodes.monitorPending {
		t.Error("the first sighting of a node after a Reset reached the controllers")
	}
}

// writeToStore puts obj into the store past the apiserver and its validation,
// as a store-channel corruption lands it: the only way a workload's selector,
// immutable through the API, changes.
func (h *harness) writeToStore(t *testing.T, obj spec.Object) {
	t.Helper()
	data, err := codec.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}
	meta := obj.Meta()
	if _, err := h.st.Put(spec.Key(obj.Kind(), meta.Namespace, meta.Name), obj.Kind(), data); err != nil {
		t.Fatal(err)
	}
}

// viewPod is the manager's view of a pod: the sealed object its syncs walk.
func (h *harness) viewPod(t *testing.T, name string) *spec.Pod {
	t.Helper()
	obj, ok := h.m.views.Get(spec.KindPod, spec.DefaultNamespace, name)
	if !ok {
		t.Fatalf("pod %s is not in the manager's view", name)
	}
	return obj.(*spec.Pod)
}

// bigLabels is a label set too large to intern: every pod it is given to
// holds a map of its own.
func bigLabels(app string) map[string]string {
	return map[string]string{"app": app, "k1": "v1", "k2": "v2", "k3": "v3", "k4": "v4"}
}

// A sync judges a label map once, and the verdict dies with the sync. Orphans
// of one template share one interned map: once a store write makes the
// ReplicaSet's selector pick them, the next sync adopts them all, where a
// verdict kept from the sync before would pass them by and create three
// more. Maps too large to intern are each judged on their own. A DaemonSet
// keeps and releases its pods by the same verdicts, and the endpoints
// controller picks its backends by them.
func TestSelectorVerdictIsPerSync(t *testing.T) {
	orphan := func(t *testing.T, h *harness, name string, labels map[string]string) {
		t.Helper()
		pod := &spec.Pod{
			Metadata: spec.ObjectMeta{Name: name, Namespace: spec.DefaultNamespace, Labels: labels},
			Spec: spec.PodSpec{Containers: []spec.Container{{
				Name: "c", Image: "registry.local/web:1", Command: []string{"serve"},
			}}},
		}
		if err := h.c.Create(pod); err != nil {
			t.Fatal(err)
		}
	}
	// judged holds each pod's ownership by the workload to what PairsMatch says
	// of its labels against the selector.
	judged := func(t *testing.T, h *harness, uid string, sel spec.LabelSelector, names ...string) {
		t.Helper()
		pairs := sel.AppendPairs(nil)
		for _, name := range names {
			pod := h.viewPod(t, name)
			ref := pod.Metadata.ControllerOf()
			owned := ref != nil && ref.UID == uid
			if want := spec.PairsMatch(pairs, pod.Metadata.Labels); owned != want {
				t.Errorf("pod %s with labels %v: owned = %v, the selector %v matches them: %v", name, pod.Metadata.Labels, owned, sel.MatchLabels, want)
			}
		}
	}

	t.Run("replicaset-shared-map", func(t *testing.T) {
		h := newHarness(t)
		strays := []string{"stray-0", "stray-1", "stray-2"}
		for _, name := range strays {
			orphan(t, h, name, map[string]string{"app": "stray"})
		}
		if err := h.c.Create(testRS("web", 0)); err != nil {
			t.Fatal(err)
		}
		h.run(time.Second)
		if !spec.SameMap(h.viewPod(t, "stray-0").Metadata.Labels, h.viewPod(t, "stray-2").Metadata.Labels) {
			t.Fatal("setup: the orphans' equal label sets are not one interned map")
		}
		obj, _ := h.m.views.Get(spec.KindReplicaSet, spec.DefaultNamespace, "web")
		rs := spec.CloneForWriteAs(obj.(*spec.ReplicaSet))
		judged(t, h, rs.Metadata.UID, rs.Spec.Selector, strays...)

		rs.Spec.Replicas = 3
		rs.Spec.Selector.MatchLabels = map[string]string{"app": "stray"}
		rs.Spec.Template.Labels = map[string]string{"app": "stray"}
		h.writeToStore(t, rs)
		h.run(time.Second)
		judged(t, h, rs.Metadata.UID, rs.Spec.Selector, strays...)
		if pods := h.pods(spec.DefaultNamespace); len(pods) != 3 {
			t.Errorf("pods = %d, want the 3 adopted orphans", len(pods))
		}
	})

	t.Run("replicaset-large-maps", func(t *testing.T) {
		h := newHarness(t)
		apps := []string{"web", "web", "other", "web", "other", "other"}
		var names []string
		for i, app := range apps {
			names = append(names, fmt.Sprintf("big-%d", i))
			orphan(t, h, names[i], bigLabels(app))
		}
		h.run(time.Second)
		if spec.SameMap(h.viewPod(t, "big-0").Metadata.Labels, h.viewPod(t, "big-1").Metadata.Labels) {
			t.Fatal("setup: labels too large to intern are one map")
		}
		if err := h.c.Create(testRS("web", 3)); err != nil {
			t.Fatal(err)
		}
		h.run(time.Second)
		obj, _ := h.m.views.Get(spec.KindReplicaSet, spec.DefaultNamespace, "web")
		rs := obj.(*spec.ReplicaSet)
		judged(t, h, rs.Metadata.UID, rs.Spec.Selector, names...)
		if pods := h.pods(spec.DefaultNamespace); len(pods) != len(apps) {
			t.Errorf("pods = %d, want the %d orphans and none created", len(pods), len(apps))
		}
	})

	t.Run("daemonset-shared-map", func(t *testing.T) {
		h := newHarness(t)
		if err := h.c.Create(testDS("agent")); err != nil {
			t.Fatal(err)
		}
		h.run(time.Second)
		var names []string
		for _, pod := range h.pods(spec.DefaultNamespace) {
			names = append(names, pod.Metadata.Name)
		}
		if len(names) != 2 || !spec.SameMap(h.viewPod(t, names[0]).Metadata.Labels, h.viewPod(t, names[1]).Metadata.Labels) {
			t.Fatalf("setup: daemon pods %v, want two sharing one interned label map", names)
		}
		obj, _ := h.m.views.Get(spec.KindDaemonSet, spec.DefaultNamespace, "agent")
		ds := spec.CloneForWriteAs(obj.(*spec.DaemonSet))
		judged(t, h, ds.Metadata.UID, ds.Spec.Selector, names...)

		ds.Spec.Selector.MatchLabels = map[string]string{"app": "agent-2"}
		ds.Spec.Template.Labels = map[string]string{"app": "agent-2"}
		h.writeToStore(t, ds)
		h.run(time.Second)
		judged(t, h, ds.Metadata.UID, ds.Spec.Selector, names...)
		if pods := h.pods(spec.DefaultNamespace); len(pods) != 4 {
			t.Errorf("pods = %d, want the 2 released and 2 replacements", len(pods))
		}
	})

	t.Run("endpoints-shared-map", func(t *testing.T) {
		h := newHarness(t)
		ns, backends := spec.DefaultNamespace, []string{"stray-0", "stray-1", "stray-2"}
		for i, name := range backends {
			h.readyPod(t, ns, name, fmt.Sprintf("10.244.0.%d", i+2), map[string]string{"app": "stray"})
		}
		h.service(t, ns, "web", map[string]string{"app": "web"})
		h.run(time.Second)
		if !spec.SameMap(h.viewPod(t, "stray-0").Metadata.Labels, h.viewPod(t, "stray-2").Metadata.Labels) {
			t.Fatal("setup: the pods' equal label sets are not one interned map")
		}
		if got := h.backends(t, ns, "web"); len(got) != 0 {
			t.Fatalf("backends %v before the selector picks the pods", got)
		}
		obj, _ := h.m.views.Get(spec.KindService, ns, "web")
		svc := spec.CloneForWriteAs(obj.(*spec.Service))
		svc.Spec.Selector = map[string]string{"app": "stray"}
		h.writeToStore(t, svc)
		h.run(time.Second)
		if got := h.backends(t, ns, "web"); !slices.Equal(got, backends) {
			t.Errorf("backends %v once the selector picks the pods, want %v", got, backends)
		}
	})

	t.Run("daemonset-large-maps", func(t *testing.T) {
		h := newHarness(t)
		for i := 2; i < 6; i++ { // the harness brings worker-0 and worker-1
			if err := h.c.Create(&spec.Node{Metadata: spec.ObjectMeta{Name: fmt.Sprintf("worker-%d", i)}}); err != nil {
				t.Fatal(err)
			}
		}
		ds := testDS("agent")
		ds.Spec.Template.Labels = bigLabels("agent")
		if err := h.c.Create(ds); err != nil {
			t.Fatal(err)
		}
		h.run(time.Second)
		var names []string
		for i, pod := range h.pods(spec.DefaultNamespace) {
			names = append(names, pod.Metadata.Name)
			if i == 1 || i == 2 || i == 5 {
				relabeled := spec.CloneForWriteAs(pod)
				relabeled.Metadata.Labels = bigLabels("other")
				if err := h.c.Update(relabeled); err != nil {
					t.Fatal(err)
				}
			}
		}
		if len(names) != 6 {
			t.Fatalf("setup: %d daemon pods, want 6", len(names))
		}
		h.run(time.Second)
		obj, _ := h.m.views.Get(spec.KindDaemonSet, spec.DefaultNamespace, "agent")
		ds = obj.(*spec.DaemonSet)
		judged(t, h, ds.Metadata.UID, ds.Spec.Selector, names...)
		if pods := h.pods(spec.DefaultNamespace); len(pods) != 9 {
			t.Errorf("pods = %d, want the 6 and 3 replacements for the released", len(pods))
		}
	})
}
