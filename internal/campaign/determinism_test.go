package campaign

import (
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// Bit-for-bit reproducibility is the property that makes a ~7,500-experiment
// campaign debuggable: the same spec must always produce the same verdict,
// the same z-score, and the same injection report.
func TestExperimentsAreDeterministic(t *testing.T) {
	specs := []Spec{
		{Workload: workload.Deploy, Seed: 4711, Injection: &inject.Injection{
			Channel: inject.ChannelStore, Kind: spec.KindDeployment,
			FieldPath: "spec.replicas", Type: inject.BitFlip, Bit: 0, Occurrence: 1,
		}},
		{Workload: workload.ScaleUp, Seed: 4712, Injection: &inject.Injection{
			Channel: inject.ChannelStore, Kind: spec.KindService,
			FieldPath: "spec.ports[0].targetPort", Type: inject.BitFlip, Bit: 4, Occurrence: 1,
		}},
		{Workload: workload.Failover, Seed: 4713, Injection: &inject.Injection{
			Channel: inject.ChannelStore, Kind: spec.KindPod,
			Type: inject.DropMessage, Occurrence: 4,
		}},
	}
	run := func() []Result {
		r := NewRunner()
		r.GoldenRuns = 5
		out := make([]Result, 0, len(specs))
		for _, s := range specs {
			out = append(out, *r.Run(s))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i].OF != b[i].OF || a[i].CF != b[i].CF || a[i].Z != b[i].Z ||
			a[i].PodsCreated != b[i].PodsCreated ||
			a[i].Report.Fired != b[i].Report.Fired ||
			a[i].Report.FiredAt != b[i].Report.FiredAt ||
			a[i].Report.Instance != b[i].Report.Instance {
			t.Fatalf("spec %d diverged between identical runs:\n  a=%+v\n  b=%+v", i, a[i], b[i])
		}
	}
}

// The parallel execution engine must not change a single bit of any output
// aggregate: a campaign run on one worker and the same campaign fanned out
// across eight workers must produce identical Tables III–VI inputs,
// refinement aggregates, propagation cells, and per-experiment results.
func TestCampaignParallelismIsDeterministic(t *testing.T) {
	base := Config{
		Workloads:    []workload.Kind{workload.Deploy, workload.ScaleUp},
		GoldenRuns:   3,
		SampleStride: 101,
	}
	seq := base
	seq.Parallelism = 1
	par := base
	par.Parallelism = 8
	var parTicks atomic.Int64
	par.Progress = func(done, total int) { parTicks.Add(1) }

	a := RunCampaign(seq)
	b := RunCampaign(par)

	if !reflect.DeepEqual(a.FieldsRecorded, b.FieldsRecorded) {
		t.Errorf("FieldsRecorded diverged: %v vs %v", a.FieldsRecorded, b.FieldsRecorded)
	}
	if !reflect.DeepEqual(a.Main, b.Main) {
		t.Errorf("Main aggregate diverged (%d vs %d results)", a.Main.Total(), b.Main.Total())
	}
	if !reflect.DeepEqual(a.Refinement, b.Refinement) {
		t.Errorf("Refinement aggregate diverged (%d vs %d results)", a.Refinement.Total(), b.Refinement.Total())
	}
	if !reflect.DeepEqual(a.Propagation, b.Propagation) {
		t.Errorf("Propagation cells diverged:\n  seq=%+v\n  par=%+v", a.Propagation, b.Propagation)
	}
	if a.Main.Total() == 0 {
		t.Fatal("campaign ran zero main experiments; the test is vacuous")
	}
	want := int64(a.Main.Total() + a.Refinement.Total())
	for _, cell := range a.Propagation {
		want += int64(cell.Injected)
	}
	if got := parTicks.Load(); got != want {
		t.Errorf("parallel Progress ticked %d times, want %d", got, want)
	}
}

// A shared Runner must be safe (and deterministic) when hammered from many
// goroutines at once, including the first Baseline build — the seed
// implementation had an unsynchronized map that would race here.
func TestRunnerConcurrentUse(t *testing.T) {
	r := NewRunner()
	r.GoldenRuns = 3
	r.Parallelism = 4
	specs := []Spec{
		{Workload: workload.Deploy, Seed: 6001, Injection: &inject.Injection{
			Channel: inject.ChannelStore, Kind: spec.KindDeployment,
			FieldPath: "spec.replicas", Type: inject.BitFlip, Bit: 1, Occurrence: 1,
		}},
		{Workload: workload.Deploy, Seed: 6002},
		{Workload: workload.ScaleUp, Seed: 6003, Injection: &inject.Injection{
			Channel: inject.ChannelStore, Kind: spec.KindService,
			FieldPath: "spec.ports[0].port", Type: inject.BitFlip, Bit: 2, Occurrence: 1,
		}},
		{Workload: workload.ScaleUp, Seed: 6004},
	}
	const rounds = 3
	got := make([]*Result, rounds*len(specs))
	forEachWorker(len(got), 8, r, func(_ *Worker, i int) {
		got[i] = r.Run(specs[i%len(specs)])
	})
	for i := len(specs); i < len(got); i++ {
		prev := got[i-len(specs)]
		cur := got[i]
		if cur.OF != prev.OF || cur.CF != prev.CF || cur.Z != prev.Z {
			t.Fatalf("concurrent runs of spec %d diverged: %+v vs %+v", i%len(specs), prev, cur)
		}
	}
}

// Campaign generation must be deterministic too: the same recorder yields
// the same experiment list.
func TestGenerationIsDeterministic(t *testing.T) {
	r := NewRunner()
	r.GoldenRuns = 3
	rec := r.Record(workload.Deploy)
	a := Generate(workload.Deploy, rec)
	b := Generate(workload.Deploy, rec)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if *a[i].Injection != *b[i].Injection || a[i].Seed != b[i].Seed {
			t.Fatalf("spec %d differs: %+v vs %+v", i, a[i].Injection, b[i].Injection)
		}
	}
}
