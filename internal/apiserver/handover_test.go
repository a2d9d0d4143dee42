package apiserver

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// testService is a Service without the identities a create draws: no UID and
// no ClusterIP.
func testService(name string) *spec.Service {
	return &spec.Service{
		Metadata: spec.ObjectMeta{Name: name, Namespace: spec.DefaultNamespace},
		Spec: spec.ServiceSpec{
			Selector: map[string]string{"app": "web"},
			Ports:    []spec.ServicePort{{Port: 80, TargetPort: 8080}},
		},
	}
}

// A Create or Update hands its object to the server: what the cache serves
// afterwards is the caller's own instance, sealed on commit, with no copy in
// between.
func TestWriteHandsObjectOver(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("test")
	get := func(step string) spec.Object {
		t.Helper()
		loop.RunUntil(loop.Now() + time.Second)
		obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
		if err != nil {
			t.Fatalf("%s: Get: %v", step, err)
		}
		return obj
	}

	created := testPod("web-1")
	if err := c.Create(created); err != nil {
		t.Fatal(err)
	}
	if obj := get("create"); obj != spec.Object(created) || !created.Metadata.Sealed() {
		t.Fatalf("after Create, Get served %p (sealed %v), want the created %p, sealed",
			obj, obj.Meta().Sealed(), created)
	}

	updated := spec.CloneForWriteAs(created)
	updated.Metadata.Labels = map[string]string{"app": "web", "tier": "front"}
	if err := c.Update(updated); err != nil {
		t.Fatal(err)
	}
	if obj := get("update"); obj != spec.Object(updated) || !updated.Metadata.Sealed() {
		t.Fatalf("after Update, Get served %p (sealed %v), want the updated %p, sealed",
			obj, obj.Meta().Sealed(), updated)
	}
}

// A sealed cache reference passed straight to Update is copied before the
// server stamps it: the write commits, and the cached instance — shared by
// every reader — keeps its bytes.
func TestUpdateCopiesSealedReference(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	cached, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	before := mustMarshal(cached)

	if err := c.Update(cached); err != nil {
		t.Fatalf("Update of a sealed reference: %v", err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	if obj == cached || obj.Meta().Generation != cached.Meta().Generation+1 {
		t.Fatalf("Update served %p at generation %d, want a new instance at generation %d",
			obj, obj.Meta().Generation, cached.Meta().Generation+1)
	}
	if !bytes.Equal(mustMarshal(cached), before) {
		t.Fatal("Update wrote into the sealed cache instance it was passed")
	}
}

// A Create that fails on a server after it drew a UID and a ClusterIP fails
// over with neither: on three replicas with the home replica partitioned away,
// the minority's write is refused (no quorum), and the next server stamps the
// resent object from its own counters, as it would stamp a fresh copy.
func TestFailedOverCreateIsStampedByTheNextServer(t *testing.T) {
	loop := sim.NewLoop(12)
	rep := store.NewReplicated(loop, 3, nil)
	c := NewControlPlane(loop, rep, nil, nil).Endpoints.ClientFor("failover-test")
	rep.Partition([]int{0}, []int{1, 2})

	if err := c.Create(testService("web")); err != nil {
		t.Fatalf("Create across the partition: %v", err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	obj, err := c.Get(spec.KindService, spec.DefaultNamespace, "web")
	if err != nil {
		t.Fatal(err)
	}
	// Server 1 draws from offset 1 with stride 3; server 0's draws (uid-3,
	// 10.96.0.4) were made for a write that never committed.
	svc := obj.(*spec.Service)
	if svc.Metadata.UID != "uid-4" || svc.Spec.ClusterIP != "10.96.0.5" {
		t.Fatalf("failed-over create committed UID %q and ClusterIP %q, want uid-4 and 10.96.0.5",
			svc.Metadata.UID, svc.Spec.ClusterIP)
	}
}

// A Create that admission rejects leaves the caller's object without the UID
// the server drew for it. (Services, the kind that also draws a ClusterIP,
// are outside the chain's scope; the failover test covers that draw.)
func TestRejectedCreateCarriesNoDrawnIdentity(t *testing.T) {
	_, _, srv := newTestServer(t)
	chain := NewAdmissionChain(FailClosed, StandardAdmissionHooks(3, nil)...)
	chain.SetWebhookDown(2, true)
	srv.admission = chain

	pod := testPod("web-1")
	if err := srv.ClientFor("test").Create(pod); !errors.Is(err, ErrAdmission) {
		t.Fatalf("Create past a down fail-closed hook = %v, want ErrAdmission", err)
	}
	if pod.Metadata.UID != "" {
		t.Fatalf("rejected create carries UID %q, want none", pod.Metadata.UID)
	}
}
