package mutiny_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	mutiny "github.com/mutiny-sim/mutiny"
)

// The HA smoke campaign `make check` runs: a three-replica control plane
// rides out one apiserver crash and one healed master partition, the
// workload completes on the survivors, and the failover/stale-read table
// renders from the measured windows.
func TestHAControlPlaneSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("HA smoke campaign is slow")
	}
	runner := mutiny.NewRunner()
	runner.GoldenRuns = 5
	runner.ClusterConfig.ControlPlaneReplicas = 3

	agg := mutiny.NewAggregate()
	specs := []mutiny.Spec{
		{Workload: mutiny.WorkloadDeploy, Seed: 7_900_001, Injection: &mutiny.Injection{
			Type: mutiny.FaultAPIServerCrash, Replica: 0,
			After: 3 * time.Second, Heal: 18 * time.Second,
		}},
		{Workload: mutiny.WorkloadDeploy, Seed: 7_900_002, Injection: &mutiny.Injection{
			Type: mutiny.FaultMasterPartition, Replica: 0,
			After: 3 * time.Second, Heal: 18 * time.Second,
		}},
	}
	for _, spec := range specs {
		res := runner.Run(spec)
		if !res.Report.Fired || !res.Report.Activated {
			t.Fatalf("%s: fault did not fire/activate: %+v", spec.Injection.Type, res.Report)
		}
		if !res.Report.Healed {
			t.Fatalf("%s: fault did not heal: %+v", spec.Injection.Type, res.Report)
		}
		// A crashed or partitioned replica must degrade, not destroy: the
		// survivors keep the cluster reacting, so the run never classifies
		// as a stall or outage.
		if res.OF == mutiny.OFSta || res.OF == mutiny.OFOut {
			t.Fatalf("%s: escalated to %s; HA must ride out a single-replica fault", spec.Injection.Type, res.OF)
		}
		agg.Add(res)
	}

	// The measured windows feed the HA table: the partition must expose a
	// stale-read window (the isolated apiserver keeps serving its frozen
	// cache while the majority moves on).
	if st := agg.Windows[mutiny.WindowKey{Fault: mutiny.FaultMasterPartition}][1]; len(st) != 1 || st[0] == 0 {
		t.Fatalf("partition stale-read window not measured: %v", st)
	}

	var buf bytes.Buffer
	mutiny.RenderHATable(&buf, agg)
	for _, axis := range []string{"apiserver-crash", "master-partition"} {
		if !strings.Contains(buf.String(), axis) {
			t.Fatalf("HA table missing %s axis:\n%s", axis, buf.String())
		}
	}
}
