package mutiny_test

import (
	"runtime"
	"testing"
	"time"

	mutiny "github.com/mutiny-sim/mutiny"
)

// Budgets for the 500-node bootstrap, generously above the measured cost
// (≈40ms / ≈6MB on the reference machine) but far below what an
// O(nodes²)-per-cycle regression in the scheduler or endpoints controller
// would cost. The repository benchmark's zoned-500 workload tracks the precise
// per-experiment number; this guard only keeps `make check` from silently
// absorbing a blow-up.
const (
	scale500WallBudget  = 10 * time.Second
	scale500AllocBudget = 1 << 30 // bytes
)

// The scale smoke `make check` runs: a 500-node three-zone cloud-edge
// cluster bootstraps and settles inside the recorded budget, completes a
// workload, rides out an edge-zone partition while core clients keep being
// served, and re-converges once the uplink heals.
func TestScale500Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("500-node smoke campaign is slow")
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()

	cl := mutiny.NewCluster(mutiny.ClusterConfig{Seed: 10, Workers: 500, Zones: 3})
	cl.Start()
	if !cl.AwaitSettled(120 * time.Second) {
		t.Fatal("500-node cluster did not settle within 120s of simulated time")
	}

	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	allocs := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("bootstrap+settle: wall=%v allocs=%dMB", wall, allocs>>20)
	if wall > scale500WallBudget {
		t.Errorf("bootstrap wall-clock %v exceeds the %v budget", wall, scale500WallBudget)
	}
	if allocs > scale500AllocBudget {
		t.Errorf("bootstrap allocated %dMB, budget %dMB", allocs>>20, scale500AllocBudget>>20)
	}

	if got := cl.Zones(); got != 3 {
		t.Fatalf("Zones() = %d, want 3", got)
	}
	if nodes := cl.Client("smoke").List(mutiny.KindNode, ""); len(nodes) != 501 {
		t.Fatalf("%d nodes, want 501 (500 workers + control plane)", len(nodes))
	}
	edge := cl.ZoneName(2)
	if len(cl.ZoneNodes(edge)) == 0 || len(cl.ZoneNodes(cl.ZoneName(0))) == 0 {
		t.Fatalf("zones not populated: core=%d edge=%d",
			len(cl.ZoneNodes(cl.ZoneName(0))), len(cl.ZoneNodes(edge)))
	}

	// The workload completes at scale.
	driver := mutiny.NewDriver(cl, mutiny.WorkloadDeploy)
	driver.Setup()
	driver.Run()
	ns, name := driver.TargetService()
	obj, err := cl.Client("smoke").Get(mutiny.KindService, ns, name)
	if err != nil {
		t.Fatal(err)
	}
	vip := obj.(*mutiny.Service).Spec.ClusterIP

	serves := func(stage string) {
		t.Helper()
		for i := 0; i < 10; i++ {
			if res := cl.Net.Request(cl.MonitoringNode(), vip, 80); !res.Failed() {
				return
			}
		}
		t.Fatalf("%s: 10 consecutive request failures from the monitoring node", stage)
	}
	serves("after workload")

	// Ride out an edge-zone partition: the cluster degrades but core
	// clients stay served, and the heal re-converges the topology.
	cl.SetZonePartitioned(edge, true)
	cl.Loop.RunUntil(cl.Loop.Now() + 10*time.Second)
	if !cl.TopologyDegraded() {
		t.Fatal("edge partition not visible as topology degradation")
	}
	serves("during edge partition")

	cl.SetZonePartitioned(edge, false)
	deadline := cl.Loop.Now() + 60*time.Second
	for cl.Loop.Now() < deadline && !cl.TopologyConverged() {
		cl.Loop.RunUntil(cl.Loop.Now() + time.Second)
	}
	if !cl.TopologyConverged() {
		t.Fatal("topology did not re-converge within 60s of the heal")
	}
	serves("after heal")
	cl.Stop()
}
