package main

import (
	"reflect"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/campaign"
	"github.com/mutiny-sim/mutiny/internal/classify"
	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// TestLifecycleMatchesRunner keeps the traced run honest: the hand-driven
// lifecycle must give, spec for spec, the Result that Runner.Run and
// Runner.RunPropagation give — in the replay regime, where every seed lines
// up by construction, and in the fork regime, which also pins the bootstrap
// seed and timeline constants copied from internal/campaign.
func TestLifecycleMatchesRunner(t *testing.T) {
	const kind = workload.Deploy
	for _, share := range []bool{false, true} {
		campaign.ClearSnapshotCache()
		runner := campaign.NewRunner()
		runner.GoldenRuns = 4
		runner.ShareBootstrap = share
		runner.Parallelism = 1

		rec := runner.Record(kind)
		main := campaign.Generate(kind, rec)
		prop := campaign.GeneratePropagation(kind, rec, "kcm")
		items := append(asItems(sample(main, len(main)/8, 3), false), asItems(sample(prop, len(prop)/2, 1), true)...)
		if len(items) < 8 {
			t.Fatalf("only %d specs selected", len(items))
		}

		l := &lifecycle{runner: runner, pool: classify.NewBufferPool(), agg: campaign.NewAggregate()}
		if share {
			cl, _ := bootSettled(cluster.Config{}, kind, bootstrapSeed(kind), nil)
			l.snaps = map[workload.Kind]*cluster.Snapshot{kind: cl.Snapshot()}
		}
		fired := 0
		for i, it := range items {
			var want *campaign.Result
			if it.prop {
				want = runner.RunPropagation(it.spec)
			} else {
				want = runner.Run(it.spec)
			}
			got, counts := l.run(i, it)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("share=%v spec %d (%s): lifecycle gave\n%+v\nRunner gave\n%+v", share, i, it.spec.Injection.Label(), got, want)
			}
			if counts.events <= 0 || counts.storeWrites <= 0 {
				t.Errorf("share=%v spec %d: counts %+v", share, i, counts)
			}
			if got.Report.Fired {
				fired++
			}
		}
		if fired == 0 {
			t.Errorf("share=%v: no injection fired in %d specs; the comparison shows nothing", share, len(items))
		}
		if l.agg.Total() == 0 {
			t.Errorf("share=%v: nothing aggregated", share)
		}
	}
}
