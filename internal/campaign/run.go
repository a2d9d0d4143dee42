package campaign

import (
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// Config parameterizes a full campaign run (§IV-C's workflow).
type Config struct {
	// Workloads to exercise; nil means all three.
	Workloads []workload.Kind
	// GoldenRuns per workload; zero means the paper's 100.
	GoldenRuns int
	// SampleStride runs every n-th generated message-fault experiment (1 =
	// the full campaign). The generated campaign is deterministic, so a
	// stride subsamples it evenly across kinds, fields and fault models. The
	// timed-fault matrices (control plane, admission, topology) are small
	// and periodic and always run in full.
	SampleStride int
	// ControlPlaneReplicas sets the number of apiserver/store replicas in
	// every experiment cluster (0 or 1 = the classic single control plane).
	// With 2+ replicas the campaign additionally generates the HA fault
	// axes — apiserver crash, master partition, store-replica loss — and the
	// aggregate gains per-axis failover and stale-read-window statistics.
	ControlPlaneReplicas int
	// AdmissionHooks installs the standard governance webhook chain (first N
	// hooks) in every experiment cluster and additionally generates the
	// admission fault axes — webhook down, webhook latency, wrong selector,
	// missing failure policy — each under both failure-policy regimes. Zero
	// (the default) means no chain: the write path, the generated matrix, and
	// every historical output are untouched.
	AdmissionHooks int
	// FailurePolicy is the configured failure policy of the installed hooks
	// ("Fail" or "Ignore"; empty = the platform default, Ignore). The
	// generated admission axes override it per experiment — this knob matters
	// for golden runs and for non-admission faults running with a chain.
	FailurePolicy string
	// Workers sets the number of worker nodes in every experiment cluster
	// (0 = the cluster default). Large zoned clusters pair it with
	// ShareBootstrap — the bootstrap is paid once, not per experiment.
	Workers int
	// Zones splits the worker nodes over a cloud-edge topology (zone 0 the
	// cloud core, the last zone the edge, any between regional) and
	// additionally generates the topology fault axes — edge-link flap, zone
	// partition, mass node-kill — per non-core zone, with per-axis-per-zone
	// disruption and recovery statistics in the aggregate. 0 or 1 (the
	// default) keeps the flat network and generates nothing extra.
	Zones int
	// EdgeNodes is the number of workers in the edge zone (0 with Zones >= 2
	// = an even split).
	EdgeNodes int
	// SkipRefinement disables the §V-C2 critical-field value-set round.
	SkipRefinement bool
	// SkipPropagation disables the §V-C4 component-channel experiments.
	SkipPropagation bool
	// Progress, if set, receives (done, total) after every experiment. It is
	// always invoked serially (under a mutex), even when experiments run on
	// multiple workers.
	Progress func(done, total int)
	// Parallelism is the number of worker goroutines executing experiments:
	// 0 = runtime.GOMAXPROCS(0), 1 = the sequential path, n = n workers.
	// Campaign outputs are bit-identical for every setting — experiments are
	// isolated simulations and results are merged in generated-spec order —
	// so this knob trades only wall-clock for cores.
	Parallelism int
	// Shards and ShardIndex partition the generated spec matrix across
	// cooperating processes: experiment i (in generated order) runs in
	// shard i % Shards, and RunShard executes exactly that slice. Shards
	// <= 1 means unsharded. Generation is deterministic, so every shard
	// process regenerates the identical matrix from the same Config and the
	// index-ordered merge of all shard outputs (MergeShardOutputs) is
	// bit-identical to a single-process run. Only RunShard reads these;
	// RunCampaign ignores them (it always runs the full matrix).
	Shards     int
	ShardIndex int
	// ShareBootstrap runs every experiment as a fork of one settled
	// bootstrap snapshot per workload instead of replaying bootstrap and
	// scenario setup per experiment, cutting per-experiment cost by the
	// bootstrap share. Golden baselines are forked the same way, so
	// classification is preserved relative to the full-replay path (see the
	// cluster package docs for the exact equivalence contract); individual
	// observations are not bit-identical to it. Off keeps the legacy
	// full-replay behavior. Either way, campaign outputs remain bit-
	// reproducible run-to-run and across Parallelism settings.
	ShareBootstrap bool
}

func (c Config) withDefaults() Config {
	if len(c.Workloads) == 0 {
		// An admission campaign defaults to the governance workload — the one
		// whose canary creates make enforcement-integrity loss measurable.
		if c.AdmissionHooks > 0 {
			c.Workloads = []workload.Kind{workload.Policy}
		} else {
			c.Workloads = workload.Kinds()
		}
	}
	if c.GoldenRuns == 0 {
		c.GoldenRuns = 100
	}
	if c.SampleStride <= 0 {
		c.SampleStride = 1
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.ShardIndex < 0 || c.ShardIndex >= c.Shards {
		panic("campaign: ShardIndex out of range")
	}
	return c
}

// PropagationCell aggregates the Table VI columns for one component under
// one workload.
type PropagationCell struct {
	Workload   workload.Kind
	Component  string
	Injected   int
	Propagated int
	Errored    int
}

// Output bundles everything a full campaign produces.
type Output struct {
	// Main is the aggregate over the §IV-C field/drop/serialization
	// campaign (Tables III, IV, V; Figures 6, 7).
	Main *Aggregate
	// Refinement aggregates the critical-field value-set round (§V-C2).
	Refinement *Aggregate
	// Propagation holds the Table VI cells.
	Propagation []PropagationCell
	// FieldsRecorded counts the wire-recorded fields per workload.
	FieldsRecorded map[workload.Kind]int
	// Runner retains the golden baselines for further experiments.
	Runner *Runner
}

// RunCampaign executes the complete experimental method: golden runs, field
// recording, campaign generation, the injection experiments, the
// critical-field refinement round, and the propagation experiments.
//
// Experiments are fanned out across Config.Parallelism workers (see pool.go);
// the Output is bit-identical to a sequential run because results are merged
// in generated-spec order and the golden baselines are built once per
// workload before the fan-out.
//
// RunCampaign is exactly the one-shard case of the sharded pipeline: it runs
// the full matrix as a single shard and merges it (see shard.go), so the
// sharded and unsharded paths share every line of execution and merge code.
func RunCampaign(cfg Config) *Output {
	cfg = cfg.withDefaults()
	cfg.Shards, cfg.ShardIndex = 1, 0
	return MergeShardOutputs(cfg, []*ShardOutput{RunShard(cfg)})
}

// refinementSpecs derives the §V-C2 critical-field value-set round from the
// main aggregate. The round honors Config.SampleStride like every other
// generated spec list: a strided smoke campaign must subsample the
// refinement experiments too, not run the full set.
func refinementSpecs(cfg Config, main *Aggregate) []Spec {
	var specs []Spec
	for _, wl := range cfg.Workloads {
		specs = append(specs, sample(GenerateCriticalRefinement(wl, criticalFieldsFor(main, wl)), cfg.SampleStride)...)
	}
	return specs
}

// criticalFieldsFor narrows the critical fields to one workload.
func criticalFieldsFor(agg *Aggregate, wl workload.Kind) []inject.RecordedField {
	scoped := NewAggregate()
	for _, res := range agg.Results {
		if res.Spec.Workload == wl {
			scoped.Add(res)
		}
	}
	return scoped.CriticalFields()
}

func sample(specs []Spec, stride int) []Spec {
	if stride <= 1 {
		return specs
	}
	out := make([]Spec, 0, len(specs)/stride+1)
	for i := 0; i < len(specs); i += stride {
		out = append(out, specs[i])
	}
	return out
}
