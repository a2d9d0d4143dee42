package cluster

import (
	"reflect"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// Config must hold plain values only: Clone is a copy, and the campaign's
// snapshot cache keys on the value: a pointer, map, slice, func or interface
// field would share state between clones, and key the cache on an address or
// not be a key at all.
func TestClusterConfigIsAPlainValue(t *testing.T) {
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Map, reflect.Slice, reflect.Func, reflect.Interface,
			reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %s: Config must be a plain value", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		}
	}
	walk(reflect.TypeOf(Config{}), "Config")
}

func bootCluster(t *testing.T, seed int64) *Cluster {
	t.Helper()
	c := New(Config{Seed: seed})
	c.Start()
	if !c.AwaitSettled(30 * time.Second) {
		t.Fatal("cluster did not settle within 30s of simulated time")
	}
	return c
}

func appDeployment(name string, replicas int64) *spec.Deployment {
	return &spec.Deployment{
		Metadata: spec.ObjectMeta{
			Name: name, Namespace: spec.DefaultNamespace,
			Labels: map[string]string{spec.LabelApp: name},
		},
		Spec: spec.DeploymentSpec{
			Replicas: replicas,
			Selector: spec.LabelSelector{MatchLabels: map[string]string{spec.LabelApp: name}},
			Template: spec.PodTemplate{
				Labels: map[string]string{spec.LabelApp: name},
				Spec: spec.PodSpec{
					Containers: []spec.Container{{
						Name: "web", Image: "registry.local/webapp:1.0",
						Command:          []string{"serve"},
						RequestsMilliCPU: 250, RequestsMemMB: 128,
						LimitsMilliCPU: 500, LimitsMemMB: 256, Port: 8080,
					}},
					VolumeSeed: "seed-v1",
				},
			},
			MaxSurge: 1,
		},
	}
}

func appService(name string) *spec.Service {
	return &spec.Service{
		Metadata: spec.ObjectMeta{
			Name: name, Namespace: spec.DefaultNamespace,
			Labels: map[string]string{spec.LabelApp: name},
		},
		Spec: spec.ServiceSpec{
			Selector: map[string]string{spec.LabelApp: name},
			Ports:    []spec.ServicePort{{Port: 80, TargetPort: 8080, Protocol: "TCP"}},
		},
	}
}

// Negative counts from an API caller mean the defaults, not a panic in
// assemble or a cluster without worker nodes.
func TestNegativeCountsMeanDefaults(t *testing.T) {
	c, def := New(Config{Workers: -3, ControlPlaneReplicas: -1}), New(Config{})
	if len(c.Servers) != len(def.Servers) || len(c.Kubelets) != len(def.Kubelets) {
		t.Fatalf("%d servers, %d kubelets, want the default cluster's %d and %d",
			len(c.Servers), len(c.Kubelets), len(def.Servers), len(def.Kubelets))
	}
}

func TestClusterBootstrap(t *testing.T) {
	c := bootCluster(t, 1)
	admin := c.Client("test")

	nodes := admin.List(spec.KindNode, "")
	if len(nodes) != 5 {
		t.Fatalf("%d nodes, want 5", len(nodes))
	}
	for _, no := range nodes {
		node := no.(*spec.Node)
		if !node.Status.Ready {
			t.Fatalf("node %s not ready", node.Metadata.Name)
		}
		if !c.Net.RoutesUp(node.Metadata.Name) {
			t.Fatalf("routes not up on %s", node.Metadata.Name)
		}
	}
	if !c.Net.DNSHealthy() {
		t.Fatal("DNS unhealthy after bootstrap")
	}
	if !c.ControlPlaneResponsive() {
		t.Fatal("control plane not responsive")
	}
	// Flannel daemon pods: one per node.
	dsObj, err := admin.Get(spec.KindDaemonSet, spec.SystemNamespace, "kube-flannel")
	if err != nil {
		t.Fatal(err)
	}
	ds := dsObj.(*spec.DaemonSet)
	if ds.Status.NumberReady != 5 {
		t.Fatalf("flannel ready = %d, want 5", ds.Status.NumberReady)
	}
}

func TestDeploymentBecomesReadyAndServes(t *testing.T) {
	c := bootCluster(t, 2)
	user := c.Client("kbench")
	if err := user.Create(appDeployment("webapp", 2)); err != nil {
		t.Fatal(err)
	}
	if err := user.Create(appService("webapp")); err != nil {
		t.Fatal(err)
	}
	deadline := c.Loop.Now() + 40*time.Second
	var ready int64
	for c.Loop.Now() < deadline {
		c.Loop.RunUntil(c.Loop.Now() + time.Second)
		if obj, err := user.Get(spec.KindDeployment, spec.DefaultNamespace, "webapp"); err == nil {
			ready = obj.(*spec.Deployment).Status.ReadyReplicas
			if ready == 2 {
				break
			}
		}
	}
	if ready != 2 {
		t.Fatalf("readyReplicas = %d, want 2", ready)
	}

	// Pods must not land on the control-plane or monitoring nodes.
	for _, po := range user.List(spec.KindPod, spec.DefaultNamespace) {
		pod := po.(*spec.Pod)
		if pod.Spec.NodeName == ControlPlaneNode || pod.Spec.NodeName == c.MonitoringNode() {
			t.Fatalf("app pod scheduled on reserved node %s", pod.Spec.NodeName)
		}
	}

	// The service answers from the monitoring node.
	svcObj, err := user.Get(spec.KindService, spec.DefaultNamespace, "webapp")
	if err != nil {
		t.Fatal(err)
	}
	vip := svcObj.(*spec.Service).Spec.ClusterIP
	okCount := 0
	for i := 0; i < 20; i++ {
		res := c.Net.Request(c.MonitoringNode(), vip, 80)
		if !res.Failed() {
			okCount++
			if res.Latency <= 0 || res.Latency > time.Second {
				t.Fatalf("implausible latency %v", res.Latency)
			}
		}
		c.Loop.RunUntil(c.Loop.Now() + 50*time.Millisecond)
	}
	if okCount < 18 {
		t.Fatalf("only %d/20 requests succeeded", okCount)
	}
}

func TestScaleUp(t *testing.T) {
	c := bootCluster(t, 3)
	user := c.Client("kbench")
	if err := user.Create(appDeployment("webapp", 2)); err != nil {
		t.Fatal(err)
	}
	c.Loop.RunUntil(c.Loop.Now() + 10*time.Second)
	obj, err := user.Get(spec.KindDeployment, spec.DefaultNamespace, "webapp")
	if err != nil {
		t.Fatal(err)
	}
	d := obj.(*spec.Deployment)
	d.Spec.Replicas = 5
	if err := user.Update(d); err != nil {
		t.Fatal(err)
	}
	deadline := c.Loop.Now() + 30*time.Second
	var ready int64
	for c.Loop.Now() < deadline {
		c.Loop.RunUntil(c.Loop.Now() + time.Second)
		if obj, err := user.Get(spec.KindDeployment, spec.DefaultNamespace, "webapp"); err == nil {
			ready = obj.(*spec.Deployment).Status.ReadyReplicas
			if ready == 5 {
				break
			}
		}
	}
	if ready != 5 {
		t.Fatalf("readyReplicas after scale-up = %d, want 5", ready)
	}
}

func TestFailoverRespawnsPods(t *testing.T) {
	c := bootCluster(t, 4)
	user := c.Client("kbench")
	if err := user.Create(appDeployment("webapp", 2)); err != nil {
		t.Fatal(err)
	}
	c.Loop.RunUntil(c.Loop.Now() + 10*time.Second)

	// Find a node hosting an app pod and taint it NoExecute (the paper's
	// failover workload).
	var victim string
	for _, po := range user.List(spec.KindPod, spec.DefaultNamespace) {
		pod := po.(*spec.Pod)
		if pod.Spec.NodeName != "" {
			victim = pod.Spec.NodeName
			break
		}
	}
	if victim == "" {
		t.Fatal("no scheduled app pod found")
	}
	nodeObj, err := user.Get(spec.KindNode, "", victim)
	if err != nil {
		t.Fatal(err)
	}
	node := nodeObj.(*spec.Node)
	node.Spec.Taints = append(node.Spec.Taints, spec.Taint{Key: "kbench-failover", Effect: spec.TaintNoExecute})
	if err := user.Update(node); err != nil {
		t.Fatal(err)
	}

	deadline := c.Loop.Now() + 60*time.Second
	ok := false
	for c.Loop.Now() < deadline {
		c.Loop.RunUntil(c.Loop.Now() + time.Second)
		obj, err := user.Get(spec.KindDeployment, spec.DefaultNamespace, "webapp")
		if err != nil {
			continue
		}
		if obj.(*spec.Deployment).Status.ReadyReplicas != 2 {
			continue
		}
		// All pods must be off the tainted node.
		onVictim := false
		for _, po := range user.List(spec.KindPod, spec.DefaultNamespace) {
			if po.(*spec.Pod).Spec.NodeName == victim && po.(*spec.Pod).Active() {
				onVictim = true
			}
		}
		if !onVictim {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatal("failover did not respawn pods off the tainted node")
	}
}

func TestNodeCrashTriggersEviction(t *testing.T) {
	c := bootCluster(t, 5)
	user := c.Client("kbench")
	if err := user.Create(appDeployment("webapp", 2)); err != nil {
		t.Fatal(err)
	}
	c.Loop.RunUntil(c.Loop.Now() + 10*time.Second)
	var victim string
	for _, po := range user.List(spec.KindPod, spec.DefaultNamespace) {
		pod := po.(*spec.Pod)
		if pod.Spec.NodeName != "" {
			victim = pod.Spec.NodeName
			break
		}
	}
	c.Kubelets[victim].SetDown(true)
	// Heartbeats stop; after the grace period the node goes NotReady and
	// pods are evicted and respawned elsewhere.
	deadline := c.Loop.Now() + 120*time.Second
	ok := false
	for c.Loop.Now() < deadline {
		c.Loop.RunUntil(c.Loop.Now() + 2*time.Second)
		obj, err := user.Get(spec.KindDeployment, spec.DefaultNamespace, "webapp")
		if err != nil {
			continue
		}
		if obj.(*spec.Deployment).Status.ReadyReplicas != 2 {
			continue
		}
		healthyElsewhere := true
		for _, po := range user.List(spec.KindPod, spec.DefaultNamespace) {
			pod := po.(*spec.Pod)
			if pod.Active() && pod.Status.Ready && pod.Spec.NodeName == victim {
				healthyElsewhere = false
			}
		}
		if healthyElsewhere {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatal("pods were not rescheduled off the crashed node")
	}
	nodeObj, err := user.Get(spec.KindNode, "", victim)
	if err != nil {
		t.Fatal(err)
	}
	if nodeObj.(*spec.Node).Status.Ready {
		t.Fatal("crashed node still marked Ready")
	}
}

// WorkersPerZone reports a zone empty exactly when no worker index maps to
// it, and its counts are the zone memberships New builds: the CLI rejects a
// layout on its word, so it must not disagree with the placement.
func TestWorkersPerZoneMatchesPlacement(t *testing.T) {
	for zones := 2; zones <= 6; zones++ {
		for workers := 1; workers <= 12; workers++ {
			for edge := 0; edge <= workers; edge++ {
				cfg := Config{Workers: workers, Zones: zones, EdgeNodes: edge}
				got := cfg.WorkersPerZone()
				if len(got) != zones {
					t.Fatalf("%+v: %d zone counts, want %d", cfg, len(got), zones)
				}
				built := New(cfg)
				for zone, n := range got {
					mapped := false
					for i := 0; i < workers; i++ {
						mapped = mapped || cfg.zoneOfWorker(i) == zone
					}
					if (n == 0) == mapped {
						t.Errorf("%+v: zone %d counts %d workers; a worker index maps to it: %v", cfg, zone, n, mapped)
					}
					// The control-plane node also sits in the core.
					want := n
					if zone == 0 {
						want++
					}
					if members := len(built.zoneNodes[built.ZoneName(zone)]); members != want {
						t.Errorf("%+v: zone %d holds %d nodes, WorkersPerZone says %d workers", cfg, zone, members, n)
					}
				}
			}
		}
	}
	if got := (Config{}).WorkersPerZone(); !reflect.DeepEqual(got, []int{4}) {
		t.Errorf("flat default cluster: WorkersPerZone = %v, want [4]", got)
	}
}

// Stop is a crash: across it the store gains no revision, the audit no error,
// and the leases keep replica 0's holders, left to expire rather than released.
func TestStopWritesNothing(t *testing.T) {
	for _, boot := range []func(*testing.T, int64) *Cluster{bootCluster, bootHA} {
		c := boot(t, 7)
		holders := func() [2]string {
			var h [2]string
			for i, name := range []string{"kube-controller-manager", "kube-scheduler"} {
				obj, err := c.Client("probe").Get(spec.KindLease, spec.SystemNamespace, name)
				if err != nil {
					t.Fatalf("lease %s: %v", name, err)
				}
				h[i] = obj.(*spec.Lease).Spec.HolderIdentity
			}
			return h
		}
		want := [2]string{"kcm-0", "kube-scheduler-0"}
		if h := holders(); h != want {
			t.Fatalf("%d replicas: lease holders %v before Stop, want %v", c.Replicas(), h, want)
		}
		rev, audit := c.Backend.Revision(), c.Server.Audit().Snapshot()
		c.Stop()
		c.Loop.RunUntil(c.Loop.Now() + time.Second)
		if got := c.Backend.Revision(); got != rev {
			t.Errorf("%d replicas: Stop moved the store revision %d -> %d", c.Replicas(), rev, got)
		}
		if got := c.Server.Audit().Snapshot(); !reflect.DeepEqual(got, audit) {
			t.Errorf("%d replicas: Stop moved the audit counts: %+v, before %+v", c.Replicas(), *got, *audit)
		}
		if h := holders(); h != want {
			t.Errorf("%d replicas: lease holders %v after Stop, want %v", c.Replicas(), h, want)
		}
	}
}
