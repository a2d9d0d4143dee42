package campaign

import (
	"testing"

	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/netsim"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// topologyWindowTolerance bounds how far one experiment's measured disruption
// or recovery window may drift between the replay and shared-bootstrap
// regimes: the collector samples topology state every 3 s, so one-and-a-half
// sample periods absorbs alignment skew without hiding a genuinely different
// window.
const topologyWindowTolerance = 4500.0

// The topology table must be regime-independent: parallel forked workers on a
// zoned cluster produce the same per-(fault axis, zone) statistics as
// sequential replay. Zone membership is ordinary cluster state (node labels),
// so a forked snapshot re-learns it through the normal Prime re-list, and the
// fault timers are fixed offsets from the measurement window — disruption and
// recovery windows must agree to within sampling tolerance, spec by spec.
func TestTopologyShareBootstrapEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the topology fault matrix under two regimes")
	}
	const zones = 3
	specs := GenerateTopology(workload.Failover, zones)
	if len(specs) == 0 {
		t.Fatal("GenerateTopology produced no specs; the test is vacuous")
	}

	newRunner := func(share bool) *Runner {
		r := NewRunner()
		r.GoldenRuns = 5
		r.ShareBootstrap = share
		r.ClusterConfig.Zones = zones
		return r
	}

	// Sequential replay: every experiment replays bootstrap on one goroutine.
	replayRunner := newRunner(false)
	replay := make([]*Result, len(specs))
	for i, s := range specs {
		replay[i] = replayRunner.Run(s)
	}

	// Shared bootstrap across 8 forked workers: each worker forks its
	// experiment cluster from the cached per-workload snapshot.
	shared := runAll(specs, 8, newRunner(true), (*Worker).Run, nil)

	aggReplay, aggShared := NewAggregate(), NewAggregate()
	for i := range specs {
		ra, rb := replay[i], shared[i]
		desc := specs[i].Injection.Label()
		for _, res := range []*Result{ra, rb} {
			if !res.Report.Fired || !res.Report.Healed {
				t.Fatalf("spec %d (%s): fault did not fire+heal: %+v", i, desc, res.Report)
			}
		}
		if d := ra.TopologyDisruptionMillis - rb.TopologyDisruptionMillis; d > topologyWindowTolerance || d < -topologyWindowTolerance {
			t.Errorf("spec %d (%s): disruption diverged: replay=%.0fms shared=%.0fms",
				i, desc, ra.TopologyDisruptionMillis, rb.TopologyDisruptionMillis)
		}
		if d := ra.TopologyRecoveryMillis - rb.TopologyRecoveryMillis; d > topologyWindowTolerance || d < -topologyWindowTolerance {
			t.Errorf("spec %d (%s): recovery diverged: replay=%.0fms shared=%.0fms",
				i, desc, ra.TopologyRecoveryMillis, rb.TopologyRecoveryMillis)
		}
		aggReplay.Add(ra)
		aggShared.Add(rb)
	}

	// Table granularity: both regimes populate the same (fault, zone) cells
	// with the same experiment counts.
	for _, fault := range inject.TimedFaults(inject.FamilyTopology) {
		for z := 1; z < zones; z++ {
			k := WindowKey{Fault: fault, Sub: netsim.ZoneName(z, zones)}
			if na, nb := len(aggReplay.Windows[k][0]), len(aggShared.Windows[k][0]); na != nb || na == 0 {
				t.Errorf("cell %s/%s: experiment counts diverged or empty: replay=%d shared=%d",
					fault, k.Sub, na, nb)
			}
		}
	}
}
