package controller

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// harness runs a manager, leading, against a bare apiserver with two ready
// nodes; there are no kubelets, so pods stay Pending unless a test sets status
// explicitly.
type harness struct {
	loop *sim.Loop
	srv  *apiserver.Server
	c    *apiserver.Client
	m    *Manager
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	loop := sim.NewLoop(1)
	st := store.NewReplicated(loop, 1, nil)
	srv := apiserver.New(loop, st, nil)
	m := NewManager(loop, srv.Endpoints(), Options{})
	h := &harness{loop: loop, srv: srv, c: srv.ClientFor("test"), m: m}
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
		node := obj.(*spec.Node)
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
	rs := obj.(*spec.ReplicaSet)
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
	deploy := obj.(*spec.Deployment)
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
	pods := h.pods(spec.DefaultNamespace)
	pods[0].Status.Ready = true
	pods[0].Status.Phase = spec.PodRunning
	pods[0].Status.PodIP = "10.244.1.5"
	if err := h.c.UpdateStatus(pods[0]); err != nil {
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
	name := pods[0].Metadata.Name
	pods[0].Metadata.OwnerReferences[0].UID = "uid-999999"
	if err := h.c.Update(pods[0]); err != nil {
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
func (h *harness) readyPod(t *testing.T, ns, name, ip string, labels map[string]string) {
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

func (h *harness) service(t *testing.T, ns, name string, selector map[string]string) {
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
func (h *harness) backends(t *testing.T, ns, name string) []string {
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
