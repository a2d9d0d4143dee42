package campaign

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/classify"
	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/netsim"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// rewindItem is one experiment of TestRewindMatchesFork: a spec and the path
// it runs on (observation or propagation).
type rewindItem struct {
	spec Spec
	prop bool
}

// everyFamily picks a strided list that covers every message-channel fault
// model on the store channel (at least perType specs of each) and the
// request-channel propagation specs of every component.
func everyFamily(r *Runner, kind workload.Kind, perType int) []rewindItem {
	rec := r.Record(kind)
	byType := make(map[inject.FaultType][]Spec)
	for _, s := range Generate(kind, rec) {
		byType[s.Injection.Type] = append(byType[s.Injection.Type], s)
	}
	var items []rewindItem
	for _, typ := range []inject.FaultType{inject.BitFlip, inject.SetValue, inject.DropMessage, inject.FlipProtoByte} {
		specs := byType[typ]
		for i := 0; i < perType; i++ {
			items = append(items, rewindItem{spec: specs[(2*i+1)*len(specs)/(2*perType)]})
		}
	}
	for _, component := range PropagationComponents() {
		specs := GeneratePropagation(kind, rec, component)
		for i := 0; i < 2; i++ {
			items = append(items, rewindItem{spec: specs[(2*i+1)*len(specs)/4], prop: true})
		}
	}
	return items
}

// run executes the item on w the way Worker.Run and Worker.RunPropagation do,
// keeping the whole experiment instead of the Result alone.
func (it rewindItem) run(w *Worker) (experiment, *Result) {
	exp := w.runExperiment(it.spec, !it.prop)
	if it.prop {
		return exp, exp.propagated(it.spec)
	}
	return exp, exp.observed(it.spec, w.r.Baseline(it.spec.Workload))
}

// TestRewindMatchesFork pins the invariant rewind ≡ fork from the outside: an
// experiment on a worker's rewound cluster — whatever ran on that cluster
// before, in whatever order — yields exactly what it yields as the first
// experiment of a new worker, which forks. Exactly means the Result, the whole
// observation with its series, the events the loop executed, and the store's
// revision and size when the window closed.
func TestRewindMatchesFork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~150 experiments on four cluster shapes, three times")
	}
	unhealed := func(kind workload.Kind, typ inject.FaultType, target int, value any) Spec {
		return Spec{Workload: kind, Seed: 77, Injection: &inject.Injection{
			Type: typ, Replica: target, After: 3 * time.Second, Value: value, Policy: "Fail",
		}}
	}
	shapes := []struct {
		name string
		cfg  cluster.Config
		kind workload.Kind
		// timed is the shape's own fault-axis matrix; dirtiest is the
		// experiment that leaves the most behind.
		timed    []Spec
		dirtiest Spec
	}{
		{name: "default", kind: workload.Deploy},
		{name: "zoned", cfg: cluster.Config{Workers: 12, Zones: 3}, kind: workload.Failover,
			timed:    GenerateTopology(workload.Failover, 3),
			dirtiest: unhealed(workload.Failover, inject.FaultNodeKill, 2, netsim.ZoneName(2, 3))},
		{name: "ha", cfg: cluster.Config{ControlPlaneReplicas: 3}, kind: workload.ScaleUp,
			timed:    GenerateControlPlane(workload.ScaleUp, 3),
			dirtiest: unhealed(workload.ScaleUp, inject.FaultStoreLoss, 0, nil)},
		{name: "hooks", cfg: cluster.Config{AdmissionHooks: 3}, kind: workload.Policy,
			timed:    GenerateAdmission(workload.Policy, 3),
			dirtiest: unhealed(workload.Policy, inject.FaultWebhookPolicy, 2, nil)},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			r := NewRunner()
			r.GoldenRuns = 3
			r.ShareBootstrap = true
			r.ClusterConfig = shape.cfg

			perType := 2
			if shape.name == "default" {
				perType = 6
			}
			items := everyFamily(r, shape.kind, perType)
			for _, s := range shape.timed {
				items = append(items, rewindItem{spec: s})
			}
			dirtiest := rewindItem{spec: shape.dirtiest}
			if shape.dirtiest.Injection == nil {
				// The flat cluster's dirtiest experiment is a ReplicaSet that
				// runs away until the store's quota stops it.
				for _, s := range Generate(shape.kind, r.Record(shape.kind)) {
					if strings.Contains(s.Injection.Label(), "ReplicaSet spec.template.labels[app] set() occ=2") {
						dirtiest.spec = s
					}
				}
				if dirtiest.spec.Injection == nil {
					t.Fatal("the runaway spec is no longer generated")
				}
			}

			// What each experiment yields on a fork: a new worker has no
			// cluster to rewind.
			forked := func(it rewindItem) (experiment, *Result) {
				return it.run(&Worker{r: r, pool: classify.NewBufferPool()})
			}
			wantExp := make([]experiment, len(items))
			wantRes := make([]*Result, len(items))
			fired := 0
			for i, it := range items {
				wantExp[i], wantRes[i] = forked(it)
				if wantExp[i].report.Fired {
					fired++
				}
			}
			if fired < len(items)/2 {
				t.Fatalf("only %d of %d injections fired; the comparison shows little", fired, len(items))
			}
			if exp, _ := forked(dirtiest); !exp.report.Fired {
				t.Fatalf("the dirtiest experiment did not fire: %+v", exp.report)
			} else if shape.name == "default" && exp.obs.PodsCreated < 1000 {
				t.Fatalf("the runaway created only %d pods", exp.obs.PodsCreated)
			}

			// Two workers at once, each going through the list in its own
			// order on its one cluster, the dirtiest experiment first and
			// again before every fifth.
			var wg sync.WaitGroup
			for _, backwards := range []bool{false, true} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w := r.acquireWorker()
					defer r.releaseWorker(w)
					for k := range items {
						i := k
						if backwards {
							i = len(items) - 1 - k
						}
						if k%5 == 0 {
							dirtiest.run(w)
							// A runaway is dropped, not rewound; an experiment
							// that does get rewound goes between it and the
							// one under test.
							items[(i+1)%len(items)].run(w)
						}
						exp, res := items[i].run(w)
						if len(w.clusters) != 1 {
							t.Errorf("spec %d: the worker holds %d clusters after a nominal experiment", i, len(w.clusters))
						}
						if !reflect.DeepEqual(res, wantRes[i]) {
							t.Errorf("spec %d (%s) backwards=%v: Result after a rewind\n%+v\nafter a fork\n%+v",
								i, items[i].spec.Injection.Label(), backwards, res, wantRes[i])
						}
						if !reflect.DeepEqual(exp, wantExp[i]) {
							t.Errorf("spec %d (%s) backwards=%v: experiment after a rewind\n%+v obs %+v\nafter a fork\n%+v obs %+v",
								i, items[i].spec.Injection.Label(), backwards, exp, exp.obs, wantExp[i], wantExp[i].obs)
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestRewindAfterFailureStormMatchesFork holds rewind ≡ fork across an
// experiment that fails thousands of requests yet leaves the store near its
// snapshot's size. A bit flip in a stored ReplicaSet's pod-template-hash label
// sets the controller manager recreating a ReplicaSet that exists and
// updating one that moved on: before the audit kept only counters, this
// window logged 1,598 failed requests (kcm: 795 already-exists and 787
// conflicts; scheduler: 16 not-found) against a store of 45 keys, the
// snapshot's 27, and a cluster past 1,024 failed requests was dropped and
// forked afresh. Now it is rewound, and nothing run next on it may tell.
func TestRewindAfterFailureStormMatchesFork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~25 experiments, half of them failure storms")
	}
	r := NewRunner()
	r.GoldenRuns = 3
	r.ShareBootstrap = true
	kind := workload.Deploy
	var storm rewindItem
	for _, s := range Generate(kind, r.Record(kind)) {
		if strings.Contains(s.Injection.Label(), "ReplicaSet metadata.labels[pod-template-hash] bit-flip(bit=0,char=0) occ=1") {
			storm.spec = s
			break
		}
	}
	if storm.spec.Injection == nil {
		t.Fatal("the storm spec is no longer generated")
	}

	// The storm's window on a fork of its own: still a storm, and the cluster
	// it leaves is not outgrown.
	w := &Worker{r: r, pool: classify.NewBufferPool()}
	cl, snap, injector, driver := w.bootCluster(storm.spec)
	injector.Arm(*storm.spec.Injection)
	start := cl.Loop.Now()
	cl.Loop.RunUntil(start + opStartDelay)
	driver.Run()
	cl.Loop.RunUntil(start + windowLength)
	if n := cl.Server.Audit().ErrorsBy("kcm"); n <= 1024 {
		t.Fatalf("the storm failed %d of the controller manager's requests; the test needs more than 1,024", n)
	}
	if snap.Outgrown(cl) {
		t.Fatalf("the storm's cluster (%d keys) is outgrown: it would be dropped, not rewound", cl.Backend.Len())
	}
	cl.Stop()

	items := append([]rewindItem{storm}, everyFamily(r, kind, 1)...)
	wantExp := make([]experiment, len(items))
	wantRes := make([]*Result, len(items))
	for i, it := range items {
		wantExp[i], wantRes[i] = it.run(&Worker{r: r, pool: classify.NewBufferPool()})
	}

	// One worker: the storm, then the experiment under test on the cluster
	// the storm left behind.
	w = r.acquireWorker()
	defer r.releaseWorker(w)
	for i, it := range items {
		if exp, _ := storm.run(w); !exp.report.Fired {
			t.Fatalf("the storm did not fire: %+v", exp.report)
		}
		if len(w.clusters) != 1 {
			t.Fatalf("the worker holds %d clusters after the storm, want its one rewound cluster", len(w.clusters))
		}
		exp, res := it.run(w)
		if !reflect.DeepEqual(res, wantRes[i]) {
			t.Errorf("spec %d (%s): Result after the storm's rewind\n%+v\nafter a fork\n%+v",
				i, it.spec.Injection.Label(), res, wantRes[i])
		}
		if !reflect.DeepEqual(exp, wantExp[i]) {
			t.Errorf("spec %d (%s): experiment after the storm's rewind\n%+v obs %+v\nafter a fork\n%+v obs %+v",
				i, it.spec.Injection.Label(), exp, exp.obs, wantExp[i], wantExp[i].obs)
		}
	}
}
