package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// bootHA boots a three-replica control plane and lets the standby control
// loops join (they are staggered 2 s apart).
func bootHA(t *testing.T, seed int64) *Cluster {
	t.Helper()
	c := New(Config{Seed: seed, ControlPlaneReplicas: 3})
	c.Start()
	if !c.AwaitSettled(30 * time.Second) {
		t.Fatal("HA cluster did not settle within 30s of simulated time")
	}
	c.Loop.RunUntil(c.Loop.Now() + 6*time.Second)
	return c
}

// awaitDeploymentReady drives the loop until the deployment reports all
// replicas ready, or the deadline passes.
func awaitDeploymentReady(t *testing.T, c *Cluster, name string, deadline time.Duration) {
	t.Helper()
	admin := c.Client("test")
	limit := c.Loop.Now() + deadline
	for c.Loop.Now() < limit {
		c.Loop.RunUntil(c.Loop.Now() + time.Second)
		obj, err := admin.Get(spec.KindDeployment, spec.DefaultNamespace, name)
		if err != nil {
			continue
		}
		if d := obj.(*spec.Deployment); d.Status.ReadyReplicas >= d.Spec.Replicas {
			return
		}
	}
	t.Fatalf("deployment %s not ready within %v", name, deadline)
}

// An apiserver crash must not take the cluster down: clients fail over to the
// surviving replicas, a standby manager/scheduler pair takes over after the
// lease expires, and the workload completes.
func TestHAAPIServerCrashFailover(t *testing.T) {
	c := bootHA(t, 5001)

	c.SetAPIServerDown(0, true)
	// The replica-0 leaders lose their leases; a standby takes over within
	// roughly lease duration + retry interval (~17 s). Give it 25 s.
	limit := c.Loop.Now() + 25*time.Second
	for c.Loop.Now() < limit && !c.ControlPlaneResponsive() {
		c.Loop.RunUntil(c.Loop.Now() + 500*time.Millisecond)
	}
	if !c.ControlPlaneResponsive() {
		t.Fatal("control plane never recovered after apiserver crash")
	}

	// The workload proceeds against the survivors.
	admin := c.Client("kbench")
	if err := admin.Create(appDeployment("crash-ride", 2)); err != nil {
		t.Fatalf("create after crash: %v", err)
	}
	awaitDeploymentReady(t, c, "crash-ride", 40*time.Second)

	// The restarted replica rejoins and serves again.
	c.SetAPIServerDown(0, false)
	c.Loop.RunUntil(c.Loop.Now() + 5*time.Second)
	if c.Servers[0].Down() {
		t.Fatal("restarted apiserver still down")
	}
	c.Stop()
}

// A master partition isolates one replica: its apiserver serves stale reads
// and fails writes, the majority side keeps the cluster alive, and healing
// reconverges the replicas.
func TestHAMasterPartitionHeals(t *testing.T) {
	c := bootHA(t, 5002)
	rep := c.Backend

	c.SetMasterIsolated(0, true)
	// Leadership moves to the majority side (the replica-0 leaders cannot
	// renew through their quorumless apiserver).
	limit := c.Loop.Now() + 40*time.Second
	for c.Loop.Now() < limit {
		c.Loop.RunUntil(c.Loop.Now() + time.Second)
		if c.ControlPlaneResponsive() && !c.Managers[0].IsLeading() {
			break
		}
	}
	if c.Managers[0].IsLeading() {
		t.Fatal("isolated manager still claims leadership after partition")
	}
	if !c.ControlPlaneResponsive() {
		t.Fatal("majority side never took over during partition")
	}

	// Writes land on the majority side; the isolated replica falls behind.
	admin := c.Client("kbench")
	if err := admin.Create(appDeployment("split-ride", 2)); err != nil {
		t.Fatalf("create during partition: %v", err)
	}
	// Observe through a majority-side server: a client homed on the isolated
	// apiserver would read its stale cache — the stale-read window itself —
	// and never see the deployment land.
	probe := c.Servers[1].ClientFor("probe")
	ready := false
	for end := c.Loop.Now() + 40*time.Second; c.Loop.Now() < end && !ready; {
		c.Loop.RunUntil(c.Loop.Now() + time.Second)
		if obj, err := probe.Get(spec.KindDeployment, spec.DefaultNamespace, "split-ride"); err == nil {
			d := obj.(*spec.Deployment)
			ready = d.Status.ReadyReplicas >= d.Spec.Replicas
		}
	}
	if !ready {
		t.Fatal("deployment did not become ready on the majority side")
	}
	// Meanwhile the isolated apiserver still answers — with the old view.
	if _, err := c.Servers[0].ClientFor("stale-probe").Get(spec.KindDeployment, spec.DefaultNamespace, "split-ride"); err == nil {
		t.Fatal("isolated replica already sees the majority-side deployment")
	}
	if lag := c.StoreLagMax(); lag == 0 {
		t.Fatal("isolated replica reports no revision lag during partition")
	}

	c.SetMasterIsolated(0, false)
	c.Loop.RunUntil(c.Loop.Now() + 10*time.Second)
	if lag := c.StoreLagMax(); lag != 0 {
		t.Fatalf("replicas did not reconverge after heal: lag %d", lag)
	}
	for i := 0; i < rep.Replicas(); i++ {
		if rep.ReplicaDown(i) {
			t.Fatalf("replica %d down after heal", i)
		}
	}
	c.Stop()
}

// Dropping a store replica leaves its apiserver unusable (clients fail over);
// restoring it from a surviving member brings both back.
func TestHAStoreLossAndRestore(t *testing.T) {
	c := bootHA(t, 5003)
	rep := c.Backend

	c.SetStoreReplicaLost(1, true)
	if !rep.ReplicaDown(1) {
		t.Fatal("dropped replica not marked down")
	}
	admin := c.Client("kbench")
	if err := admin.Create(appDeployment("loss-ride", 2)); err != nil {
		t.Fatalf("create after store loss: %v", err)
	}
	awaitDeploymentReady(t, c, "loss-ride", 40*time.Second)

	c.SetStoreReplicaLost(1, false)
	c.Loop.RunUntil(c.Loop.Now() + 5*time.Second)
	if rep.ReplicaDown(1) {
		t.Fatal("restored replica still down")
	}
	if lag := c.StoreLagMax(); lag != 0 {
		t.Fatalf("restored replica lags after state transfer: lag %d", lag)
	}
	// The restored replica serves reads again through its apiserver.
	if _, err := c.Servers[1].ClientFor("probe").Get(spec.KindDeployment, spec.DefaultNamespace, "loss-ride"); err != nil {
		t.Fatalf("read through restored replica: %v", err)
	}
	c.Stop()
}

// The same HA fault scenario under the same seed is bit-reproducible.
func TestHACrashScenarioDeterministic(t *testing.T) {
	run := func() (int64, int, int) {
		c := New(Config{Seed: 5004, ControlPlaneReplicas: 3})
		c.Start()
		if !c.AwaitSettled(30 * time.Second) {
			t.Fatal("did not settle")
		}
		c.Loop.RunUntil(c.Loop.Now() + 6*time.Second)
		c.SetAPIServerDown(0, true)
		c.Loop.RunUntil(c.Loop.Now() + 20*time.Second)
		admin := c.Client("kbench")
		_ = admin.Create(appDeployment("det-ha", 2))
		c.Loop.RunUntil(c.Loop.Now() + 30*time.Second)
		c.SetAPIServerDown(0, false)
		c.Loop.RunUntil(c.Loop.Now() + 10*time.Second)
		rev := c.Backend.Revision()
		pods := len(admin.List(spec.KindPod, ""))
		errs := c.Server.Audit().ErrorsBy("kbench")
		c.Stop()
		return rev, pods, errs
	}
	rev1, pods1, errs1 := run()
	rev2, pods2, errs2 := run()
	if rev1 != rev2 || pods1 != pods2 || errs1 != errs2 {
		t.Fatalf("same-seed HA crash runs diverged: rev %d/%d pods %d/%d errs %d/%d",
			rev1, rev2, pods1, pods2, errs1, errs2)
	}
}

// On a one-member store the HA fault axes have nothing to act on: armed
// through the injector on a default cluster, a store loss and a master
// partition of replica 0 fire, yet every write succeeds, no replica lags,
// and the experiment ends exactly as it does unarmed.
func TestOneReplicaHAAxesAreNoOps(t *testing.T) {
	run := func(fault inject.FaultType) (kvs []store.KV, audit *apiserver.Audit) {
		c := bootCluster(t, 5005)
		j := inject.New(c.Loop)
		c.AttachInjector(j)
		if fault != 0 {
			j.Arm(inject.Injection{Type: fault, Replica: 0, After: time.Second, Heal: 15 * time.Second})
		}
		admin := c.Client("kbench")
		if err := admin.Create(appDeployment("ride", 2)); err != nil {
			t.Fatalf("%v: create: %v", fault, err)
		}
		for i := 0; i < 20; i++ {
			c.Loop.RunUntil(c.Loop.Now() + time.Second)
			cm := &spec.ConfigMap{Data: map[string]string{"i": fmt.Sprint(i)}}
			cm.Metadata.Namespace, cm.Metadata.Name = spec.DefaultNamespace, fmt.Sprintf("write-%d", i)
			if err := admin.Create(cm); err != nil {
				t.Fatalf("%v: write %d at %v: %v", fault, i, c.Loop.Now(), err)
			}
			if lag := c.StoreLagMax(); lag != 0 {
				t.Fatalf("%v: store lag %d at %v", fault, lag, c.Loop.Now())
			}
		}
		if r := j.Report(); fault != 0 && (!r.Fired || !r.Healed) {
			t.Fatalf("%v: fired %v, healed %v: the axis was not exercised", fault, r.Fired, r.Healed)
		}
		awaitDeploymentReady(t, c, "ride", 10*time.Second)
		// The audit's copy holds every identity's error count — kbench's, the
		// manager's, the scheduler's, the electors' and each kubelet's — and
		// the five counters.
		return c.Backend.List("/registry/"), c.Server.Audit().Snapshot()
	}
	wantKVs, wantAudit := run(0)
	for _, fault := range []inject.FaultType{inject.FaultStoreLoss, inject.FaultMasterPartition} {
		kvs, audit := run(fault)
		if !reflect.DeepEqual(kvs, wantKVs) {
			t.Errorf("%v on a one-member store changed the stored state (%d keys, unarmed %d)", fault, len(kvs), len(wantKVs))
		}
		if !reflect.DeepEqual(audit, wantAudit) {
			t.Errorf("%v on a one-member store changed the audit counts: %+v, unarmed %+v", fault, *audit, *wantAudit)
		}
	}
}
