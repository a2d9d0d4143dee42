package guard_test

import (
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/guard"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

func guardedCluster(t *testing.T, seed int64) *cluster.Cluster {
	t.Helper()
	cl := cluster.New(cluster.Config{Seed: seed, EnableFieldGuard: true})
	cl.Start()
	if !cl.AwaitSettled(30 * time.Second) {
		t.Fatal("cluster did not settle")
	}
	return cl
}

func TestCriticalFieldClassification(t *testing.T) {
	critical := []string{
		"metadata.labels[app]",
		"spec.selector.matchLabels[app]",
		"spec.template.labels[app]",
		"metadata.ownerReferences[0].uid",
		"metadata.name",
		"spec.nodeName",
		"spec.clusterIP",
		"spec.podCIDR",
		"spec.ports[0].targetPort",
		"status.podIP",
	}
	for _, p := range critical {
		if !guard.CriticalField(p) {
			t.Errorf("CriticalField(%q) = false, want true", p)
		}
	}
	benign := []string{
		"metadata.creationTimestamp",
		"status.phase",
		"spec.replicas",
		"status.restartCount",
		"spec.containers[0].requestsMilliCPU",
	}
	for _, p := range benign {
		if guard.CriticalField(p) {
			t.Errorf("CriticalField(%q) = true, want false", p)
		}
	}
}

// The guard must journal a critical-field change without rolling back when
// the cluster stays healthy (a legitimate label edit).
func TestGuardJournalsBenignChange(t *testing.T) {
	cl := guardedCluster(t, 1)
	user := cl.Client("kbench")
	if err := user.Create(workload.AppDeployment("webapp-0", 2)); err != nil {
		t.Fatal(err)
	}
	cl.Loop.RunUntil(cl.Loop.Now() + 10*time.Second)

	obj, err := user.Get(spec.KindDeployment, spec.DefaultNamespace, "webapp-0")
	if err != nil {
		t.Fatal(err)
	}
	d := spec.CloneForWriteAs(obj.(*spec.Deployment))
	d.Metadata.Labels["team"] = "payments"
	if err := user.Update(d); err != nil {
		t.Fatal(err)
	}
	cl.Loop.RunUntil(cl.Loop.Now() + 30*time.Second)

	g := cl.Guard()
	found := false
	for _, ch := range g.Journal {
		if ch.Field == "metadata.labels[team]" {
			found = true
			if ch.RolledBack {
				t.Fatal("benign label change was rolled back")
			}
		}
	}
	if !found {
		t.Fatalf("label change not journaled; journal: %+v", g.Journal)
	}
	if g.Rollbacks() != 0 {
		t.Fatalf("rollbacks = %d on a healthy cluster", g.Rollbacks())
	}
}

// The §VI-B mitigation at work: the same template-label corruption that
// drives uncontrolled replication is detected by the probation monitor and
// rolled back, bounding the pod spawn.
func TestGuardRollsBackUncontrolledReplication(t *testing.T) {
	cl := guardedCluster(t, 2)
	injector := inject.New(cl.Loop)
	cl.AttachInjector(injector)

	driver := workload.NewDriver(cl, workload.Deploy)
	driver.Setup()
	injector.Arm(inject.Injection{
		Channel: inject.ChannelStore, Kind: spec.KindReplicaSet,
		FieldPath: "spec.template.labels[app]",
		Type:      inject.SetValue, Value: "mislabeled",
		Occurrence: 2,
	})
	driver.Run()
	cl.Loop.RunUntil(cl.Loop.Now() + 60*time.Second)

	g := cl.Guard()
	if g.Rollbacks() == 0 {
		t.Fatalf("guard never rolled back; journal: %+v", g.Journal)
	}
	// After the rollback the spawn loop must be broken: pods stop growing.
	count := func() int {
		n := 0
		for _, po := range cl.Client("probe").List(spec.KindPod, "") {
			if po.(*spec.Pod).Active() {
				n++
			}
		}
		return n
	}
	before := count()
	cl.Loop.RunUntil(cl.Loop.Now() + 20*time.Second)
	after := count()
	if after > before+4 {
		t.Fatalf("pods still growing after rollback: %d → %d", before, after)
	}
	// The cluster must still be operational.
	if !cl.ControlPlaneResponsive() {
		t.Fatal("control plane not responsive after mitigation")
	}
}
