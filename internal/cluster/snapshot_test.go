package cluster

import (
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// forkHealthy asserts the invariants a settled cluster must keep: routes up
// on every node, DNS answering, control plane leading, monitoring serving.
func forkHealthy(t *testing.T, c *Cluster, label string) {
	t.Helper()
	admin := c.Client("test")
	for _, no := range admin.List(spec.KindNode, "") {
		if !c.Net.RoutesUp(no.Meta().Name) {
			t.Errorf("%s: routes down on %s", label, no.Meta().Name)
		}
	}
	if !c.Net.DNSHealthy() {
		t.Errorf("%s: DNS unhealthy", label)
	}
	if !c.ControlPlaneResponsive() {
		t.Errorf("%s: control plane unresponsive", label)
	}
	obj, err := admin.Get(spec.KindDeployment, spec.SystemNamespace, "prometheus")
	if err != nil {
		t.Fatalf("%s: prometheus deployment missing: %v", label, err)
	}
	if d := obj.(*spec.Deployment); d.Status.ReadyReplicas < d.Spec.Replicas {
		t.Errorf("%s: prometheus not ready (%d/%d)", label, d.Status.ReadyReplicas, d.Spec.Replicas)
	}
}

// A fork must resume settled: every system invariant holds at the fork
// instant and keeps holding while the fork runs on, without the system pods
// being restarted or replaced.
func TestForkResumesSettled(t *testing.T) {
	c := bootCluster(t, 4001)
	snap := c.Snapshot()

	fork := snap.Fork(9001)
	forkHealthy(t, fork, "at fork")

	podsBefore := len(fork.Client("test").List(spec.KindPod, spec.SystemNamespace))
	fork.Loop.RunUntil(fork.Loop.Now() + 30*time.Second)
	forkHealthy(t, fork, "after 30s")
	podsAfter := len(fork.Client("test").List(spec.KindPod, spec.SystemNamespace))
	if podsBefore != podsAfter {
		t.Errorf("system pod set churned across the fork window: %d -> %d", podsBefore, podsAfter)
	}
	fork.Stop()
}

// Forking must not mutate the snapshot: a second fork from the same
// snapshot sees the same state regardless of what the first fork did to its
// own cluster.
func TestForkIsolation(t *testing.T) {
	c := bootCluster(t, 4002)
	snap := c.Snapshot()

	first := snap.Fork(9002)
	admin := first.Client("vandal")
	if err := admin.Create(appDeployment("intruder", 3)); err != nil {
		t.Fatalf("create in first fork: %v", err)
	}
	first.Loop.RunUntil(first.Loop.Now() + 20*time.Second)
	first.Stop()

	second := snap.Fork(9003)
	if _, err := second.Client("test").Get(spec.KindDeployment, spec.DefaultNamespace, "intruder"); err == nil {
		t.Fatal("first fork's writes leaked into the second fork")
	}
	forkHealthy(t, second, "second fork")
	second.Stop()
}

// Two forks with the same seed are bit-identical simulations: same store
// revision, same pod inventory, same audit counters after the same window.
func TestForkDeterminism(t *testing.T) {
	c := bootCluster(t, 4003)
	snap := c.Snapshot()

	run := func(seed int64) (int64, int, int) {
		f := snap.Fork(seed)
		admin := f.Client("kbench")
		_ = admin.Create(appDeployment("det", 2))
		_ = admin.Create(appService("det"))
		f.Loop.RunUntil(f.Loop.Now() + 30*time.Second)
		rev := f.Backend.Revision()
		pods := len(admin.List(spec.KindPod, ""))
		errs := f.Server.Audit().ErrorsBy("kbench")
		f.Stop()
		return rev, pods, errs
	}
	rev1, pods1, errs1 := run(7777)
	rev2, pods2, errs2 := run(7777)
	if rev1 != rev2 || pods1 != pods2 || errs1 != errs2 {
		t.Fatalf("same-seed forks diverged: rev %d/%d pods %d/%d errs %d/%d",
			rev1, rev2, pods1, pods2, errs1, errs2)
	}
	rev3, _, _ := run(7778)
	if rev3 == 0 {
		t.Fatal("fork with fresh seed did nothing")
	}
}

// A replicated-backend snapshot captures every replica; the fork keeps
// serving from the restored primary, and a new write applies at every replica
// as it is accepted (the fork's fresh election group carries no data).
func TestForkReplicatedBackend(t *testing.T) {
	c := New(Config{Seed: 4004, ControlPlaneReplicas: 3})
	c.Start()
	if !c.AwaitSettled(30 * time.Second) {
		t.Fatal("replicated cluster did not settle")
	}
	snap := c.Snapshot()

	fork := snap.Fork(9004)
	forkHealthy(t, fork, "replicated fork")
	admin := fork.Client("kbench")
	if err := admin.Create(appDeployment("repl", 2)); err != nil {
		t.Fatalf("create on replicated fork: %v", err)
	}
	fork.Loop.RunUntil(fork.Loop.Now() + 20*time.Second)
	forkHealthy(t, fork, "replicated fork after 20s")
	fork.Stop()
}

// TestForkEventFootprint holds the events a fork runs between Restore's start
// and its return — the kubelets', data plane's and control loops' start-up
// plus the seed's phase dither — to the counts of a settled 1- and 3-replica
// snapshot forked with seed 1. They move when a component schedules one
// event more or fewer on start (a deferred start, an extra priming timer),
// when a period changes, or when the dither draws differently; an intended
// change re-measures them.
func TestForkEventFootprint(t *testing.T) {
	for _, tc := range []struct {
		replicas int
		want     int64
	}{
		{1, 4},
		{3, 21},
	} {
		c := New(Config{Seed: 4005, ControlPlaneReplicas: tc.replicas})
		c.Start()
		if !c.AwaitSettled(30 * time.Second) {
			t.Fatalf("%d replicas: cluster did not settle", tc.replicas)
		}
		snap := c.Snapshot()
		fork := snap.Fork(1)
		if got := fork.Loop.EventsExecuted() - c.Loop.EventsExecuted(); got != tc.want {
			t.Errorf("%d replicas: the fork ran %d events, want %d", tc.replicas, got, tc.want)
		}
	}
}
