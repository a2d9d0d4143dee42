package kubelet

import (
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

func newNode(t *testing.T) (*sim.Loop, *apiserver.Server, *Kubelet) {
	t.Helper()
	loop := sim.NewLoop(1)
	st := store.NewReplicated(loop, 1, nil)
	srv := apiserver.New(loop, st, nil)
	k := New(loop, srv.Endpoints(), Config{
		NodeName: "worker-0", CapacityMilliCPU: 8000, CapacityMemMB: 4096,
		PodCIDR: "10.244.1.0/24",
	})
	k.Start()
	loop.RunUntil(time.Second)
	return loop, srv, k
}

func boundPod(name string, cpu int64) *spec.Pod {
	return &spec.Pod{
		Metadata: spec.ObjectMeta{Name: name, Namespace: spec.DefaultNamespace},
		Spec: spec.PodSpec{
			NodeName: "worker-0",
			Containers: []spec.Container{{
				Name: "c", Image: "registry.local/web:1", Command: []string{"serve"},
				RequestsMilliCPU: cpu, RequestsMemMB: 64, Port: 8080,
			}},
		},
	}
}

func getPod(t *testing.T, c *apiserver.Client, name string) *spec.Pod {
	t.Helper()
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, name)
	if err != nil {
		t.Fatalf("Get(%s): %v", name, err)
	}
	return obj.(*spec.Pod)
}

func TestNodeRegistrationAndHeartbeat(t *testing.T) {
	loop, srv, _ := newNode(t)
	c := srv.ClientFor("test")
	obj, err := c.Get(spec.KindNode, "", "worker-0")
	if err != nil {
		t.Fatal(err)
	}
	node := obj.(*spec.Node)
	if !node.Status.Ready || node.Status.CapacityMilliCPU != 8000 {
		t.Fatalf("node status %+v", node.Status)
	}
	hb1 := node.Status.LastHeartbeatMillis
	loop.RunUntil(loop.Now() + 30*time.Second)
	obj, _ = c.Get(spec.KindNode, "", "worker-0")
	if obj.(*spec.Node).Status.LastHeartbeatMillis <= hb1 {
		t.Fatal("heartbeat not refreshed")
	}
}

func TestPodStartsAndBecomesReady(t *testing.T) {
	loop, srv, _ := newNode(t)
	c := srv.ClientFor("test")
	if err := c.Create(boundPod("web-1", 250)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 10*time.Second)
	pod := getPod(t, c, "web-1")
	if !pod.Status.Ready || pod.Status.Phase != spec.PodRunning {
		t.Fatalf("pod status %+v", pod.Status)
	}
	if pod.Status.PodIP == "" || pod.Status.PodIP[:7] != "10.244." {
		t.Fatalf("pod IP %q not from the node CIDR", pod.Status.PodIP)
	}
}

func TestInvalidImageNeverStarts(t *testing.T) {
	loop, srv, _ := newNode(t)
	c := srv.ClientFor("test")
	p := boundPod("bad-image", 100)
	p.Spec.Containers[0].Image = "docker.io/unknown:1" // wrong registry
	if err := c.Create(p); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 60*time.Second)
	pod := getPod(t, c, "bad-image")
	if pod.Status.Ready {
		t.Fatal("pod with unpullable image became ready")
	}
	if pod.Status.Reason != "ImagePullBackOff" {
		t.Fatalf("reason = %q, want ImagePullBackOff", pod.Status.Reason)
	}
}

func TestBadCommandCrashLoopsWithBackoff(t *testing.T) {
	loop, srv, _ := newNode(t)
	c := srv.ClientFor("test")
	p := boundPod("crasher", 100)
	p.Spec.Containers[0].Command = []string{"segfault"}
	if err := c.Create(p); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 90*time.Second)
	pod := getPod(t, c, "crasher")
	if pod.Status.Ready {
		t.Fatal("crashing pod reported ready")
	}
	if pod.Status.RestartCount < 2 {
		t.Fatalf("restart count = %d, want crash-loop restarts", pod.Status.RestartCount)
	}
	// The back-off must be exponential: restarts grow slower than linear.
	if pod.Status.RestartCount > 8 {
		t.Fatalf("restart count = %d within 90s: back-off not applied", pod.Status.RestartCount)
	}
}

func TestKubeletOverwritesCorruptedStatus(t *testing.T) {
	// The recovery path the paper observes: "the PodIP ... is overwritten by
	// the correct value sent by kubelets".
	loop, srv, _ := newNode(t)
	c := srv.ClientFor("test")
	if err := c.Create(boundPod("web-1", 100)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 10*time.Second)
	pod := spec.CloneForWriteAs(getPod(t, c, "web-1"))
	goodIP := pod.Status.PodIP
	pod.Status.PodIP = "10.99.99.99" // corrupted
	pod.Status.Ready = false
	if err := c.UpdateStatus(pod); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 15*time.Second)
	pod = getPod(t, c, "web-1")
	if pod.Status.PodIP != goodIP || !pod.Status.Ready {
		t.Fatalf("status not repaired: %+v", pod.Status)
	}
}

func TestCriticalPodEvictsLowerPriority(t *testing.T) {
	loop, srv, _ := newNode(t)
	c := srv.ClientFor("test")
	// Fill the node with a large app pod.
	if err := c.Create(boundPod("hog", 7000)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 10*time.Second)
	// A system-critical pod that does not fit must evict it.
	critical := boundPod("critical", 2000)
	critical.Spec.Priority = spec.SystemCriticalPriority
	if err := c.Create(critical); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 10*time.Second)
	if _, err := c.Get(spec.KindPod, spec.DefaultNamespace, "hog"); err == nil {
		t.Fatal("low-priority pod survived critical-pod admission")
	}
	pod := getPod(t, c, "critical")
	if !pod.Status.Ready {
		t.Fatalf("critical pod not running: %+v", pod.Status)
	}
}

func TestOverCapacityPodRejected(t *testing.T) {
	loop, srv, _ := newNode(t)
	c := srv.ClientFor("test")
	if err := c.Create(boundPod("hog", 7000)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 5*time.Second)
	// Same-priority pod that does not fit is rejected (OutOfcpu), like a
	// kubelet admission failure when scheduler and kubelet views diverge.
	if err := c.Create(boundPod("second", 2000)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 5*time.Second)
	pod := getPod(t, c, "second")
	if pod.Status.Phase != spec.PodFailed || pod.Status.Reason != "OutOfcpu" {
		t.Fatalf("status = %+v, want Failed/OutOfcpu", pod.Status)
	}
}

func TestDownNodeStopsHeartbeating(t *testing.T) {
	loop, srv, k := newNode(t)
	c := srv.ClientFor("test")
	obj, _ := c.Get(spec.KindNode, "", "worker-0")
	hb := obj.(*spec.Node).Status.LastHeartbeatMillis
	k.SetDown(true)
	loop.RunUntil(loop.Now() + 60*time.Second)
	obj, _ = c.Get(spec.KindNode, "", "worker-0")
	if obj.(*spec.Node).Status.LastHeartbeatMillis != hb {
		t.Fatal("crashed node kept heartbeating")
	}
	k.SetDown(false)
	loop.RunUntil(loop.Now() + 30*time.Second)
	obj, _ = c.Get(spec.KindNode, "", "worker-0")
	if obj.(*spec.Node).Status.LastHeartbeatMillis <= hb {
		t.Fatal("recovered node did not resume heartbeats")
	}
}

func TestOverloadedNodeSkipsHeartbeats(t *testing.T) {
	// F3's overload path: admission keeps the sum of requests within
	// capacity, so overload only arises when a running pod's requests are
	// corrupted upward after admission — which is exactly what a store
	// injection produces. The starved kubelet then misses heartbeats.
	loop, srv, _ := newNode(t)
	c := srv.ClientFor("test")
	if err := c.Create(boundPod("web-1", 2000)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 10*time.Second)
	pod := getPod(t, c, "web-1")
	pod.Spec.Containers[0].RequestsMilliCPU = 9000 // corrupted high bit
	if err := c.Update(pod); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 5*time.Second)
	obj, _ := c.Get(spec.KindNode, "", "worker-0")
	hb := obj.(*spec.Node).Status.LastHeartbeatMillis
	loop.RunUntil(loop.Now() + 60*time.Second)
	obj, _ = c.Get(spec.KindNode, "", "worker-0")
	if obj.(*spec.Node).Status.LastHeartbeatMillis > hb {
		t.Fatal("overloaded node still heartbeating")
	}
}

func TestPodMovedAwayIsReleased(t *testing.T) {
	loop, srv, k := newNode(t)
	c := srv.ClientFor("test")
	if err := c.Create(boundPod("web-1", 100)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 10*time.Second)
	pod := getPod(t, c, "web-1")
	uid := pod.Metadata.UID
	if _, ok := k.PodIP(uid); !ok {
		t.Fatal("kubelet does not track the running pod")
	}
	// Corrupted nodeName moves the pod away in the store (the validation
	// layer cannot be crossed by a client, so write it as the store would
	// see it: via a fresh object bound elsewhere after delete).
	if err := c.Delete(spec.KindPod, spec.DefaultNamespace, "web-1"); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 5*time.Second)
	if _, ok := k.PodIP(uid); ok {
		t.Fatal("kubelet kept a deleted pod's runtime")
	}
}
