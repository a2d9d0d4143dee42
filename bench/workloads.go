package main

import (
	"math/rand"

	"github.com/mutiny-sim/mutiny/internal/campaign"
	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// goldenRuns is the golden-run count every benchmark Runner uses; the
// paper's 100 would make set-up, not injection, the measured cost.
const goldenRuns = 30

// item is one experiment of a workload's spec list.
type item struct {
	spec campaign.Spec
	// prop dispatches through RunPropagation (the Table VI request-channel
	// path: no application client, no collector) instead of Run.
	prop bool
}

// workloadDef describes one benchmark workload: the cluster it runs on, how
// many closed-loop clients drive the shared Runner, and how its spec list is
// generated.
type workloadDef struct {
	name string
	why  string
	// list names the spec list, and with it the golden-outcome file; two
	// workloads that run the same list must reproduce the same outcomes.
	list    string
	cfg     cluster.Config
	clients int
	build   func(rec recordFunc, cfg cluster.Config) []item
}

// recordFunc performs the nominal recording run of one workload kind
// (campaign.Runner.Record, or a timed wrapper around it in the traced run).
type recordFunc func(workload.Kind) *inject.Recorder

// workloads lists the benchmark workloads in report order. The names are the
// handles BENCHMARK.json and later issues use.
var workloads = []workloadDef{
	{
		name: "field-body",
		why: "the paper's field matrix minus dependency fields, plus request-channel specs: " +
			"fork, 45 s window, collector; the typical experiment",
		list:    "field-body",
		clients: 1,
		build:   buildFieldBody,
	},
	{
		name: "dep-storm",
		why: "only dependency-category fields (finding F2): a few run away, creating pods until the " +
			"store quota stops them, so controllers, scheduler, store and sim dominate",
		list:    "dep-storm",
		clients: 1,
		build:   buildDepStorm,
	},
	{
		name: "field-body-par2",
		why: "the field-body list on two closed-loop clients sharing one Runner: " +
			"worker views, intern tables, allocator and GC under concurrency",
		list:    "field-body",
		clients: 2,
		build:   buildFieldBody,
	},
	{
		name: "zoned-500",
		why: "500 workers in 3 zones: topology faults plus a field slice; " +
			"heartbeats, 500-watcher fan-out, zone scheduling, fork of a large store",
		cfg:     cluster.Config{Workers: 500, Zones: 3},
		list:    "zoned-500",
		clients: 1,
		build:   buildZoned500,
	},
	{
		name: "ha-policy",
		why: "3 control-plane replicas and 3 admission hooks on the Policy workload: " +
			"replicated store, raft, election, failover and the admission chain",
		cfg:     cluster.Config{ControlPlaneReplicas: 3, AdmissionHooks: 3},
		list:    "ha-policy",
		clients: 1,
		build:   buildHAPolicy,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// newRunner builds the Runner benchmark experiments go through: fork regime,
// one campaign worker per closed-loop client.
func newRunner(cfg cluster.Config, clients int) *campaign.Runner {
	r := campaign.NewRunner()
	r.GoldenRuns = goldenRuns
	r.ShareBootstrap = true
	r.Parallelism = clients
	r.ClusterConfig = cfg.Clone()
	return r
}

// Strides and phases that size each list so that one pass takes 1.4-2 s on
// the 2-vCPU reference box (README.md, "Workloads"). dep-storm's phase is the
// one at which each of the three paper workloads contributes exactly one
// runaway experiment (3 of 69 specs, the 4.4 % share of the full list).
const (
	fieldBodyStride = 6
	depStormStride  = 20
	depStormPhase   = 5
	zonedStride     = 110
	zonedRepeats    = 6
	haStride        = 20
	haRepeats       = 2
)

// buildFieldBody generates the §IV-C matrix of the three paper workloads
// without the dependency-category fields, plus the Table VI propagation
// specs of every component.
func buildFieldBody(rec recordFunc, _ cluster.Config) []item {
	var main, prop []campaign.Spec
	for _, kind := range workload.Kinds() {
		fields := rec(kind)
		body, _ := splitDependency(campaign.Generate(kind, fields))
		main = append(main, body...)
		for _, component := range campaign.PropagationComponents() {
			prop = append(prop, campaign.GeneratePropagation(kind, fields, component)...)
		}
	}
	items := asItems(sample(main, fieldBodyStride, 0), false)
	return append(items, asItems(sample(prop, fieldBodyStride, 0), true)...)
}

// buildDepStorm keeps only the dependency-category specs of the same matrix.
func buildDepStorm(rec recordFunc, _ cluster.Config) []item {
	var dep []campaign.Spec
	for _, kind := range workload.Kinds() {
		_, storm := splitDependency(campaign.Generate(kind, rec(kind)))
		dep = append(dep, storm...)
	}
	return asItems(sample(dep, depStormStride, depStormPhase), false)
}

// buildZoned500 repeats the topology axes over simulation seeds and adds a
// slice of the Deploy field matrix recorded on the 500-node cluster.
func buildZoned500(rec recordFunc, cfg cluster.Config) []item {
	kind := workload.Deploy
	specs := repeatOverSeeds(campaign.GenerateTopology(kind, cfg.Zones), zonedRepeats)
	specs = append(specs, sample(campaign.Generate(kind, rec(kind)), zonedStride, 0)...)
	return asItems(specs, false)
}

// buildHAPolicy repeats the control-plane and admission axes over simulation
// seeds and adds a slice of the Policy field matrix.
func buildHAPolicy(rec recordFunc, cfg cluster.Config) []item {
	kind := workload.Policy
	axes := campaign.GenerateControlPlane(kind, cfg.ControlPlaneReplicas)
	axes = append(axes, campaign.GenerateAdmission(kind, cfg.AdmissionHooks)...)
	specs := repeatOverSeeds(axes, haRepeats)
	specs = append(specs, sample(campaign.Generate(kind, rec(kind)), haStride, 0)...)
	return asItems(specs, false)
}

// splitDependency separates the specs that inject a dependency-category
// field (labels, selectors, owner references: the paper's finding F2, and the
// only fields whose corruption makes a ReplicaSet create pods without end)
// from the rest.
func splitDependency(specs []campaign.Spec) (body, dep []campaign.Spec) {
	for _, s := range specs {
		if campaign.Categorize(s.Injection.FieldPath) == campaign.CategoryDependency {
			dep = append(dep, s)
		} else {
			body = append(body, s)
		}
	}
	return body, dep
}

// sample takes every stride-th spec, starting at phase.
func sample(specs []campaign.Spec, stride, phase int) []campaign.Spec {
	out := make([]campaign.Spec, 0, len(specs)/stride+1)
	for i := phase; i < len(specs); i += stride {
		out = append(out, specs[i])
	}
	return out
}

// repeatOverSeeds returns n copies of specs, copy i with every simulation
// seed moved by i*1000 (the generated seeds of one axis list are
// consecutive, so copies never collide).
func repeatOverSeeds(specs []campaign.Spec, n int) []campaign.Spec {
	out := make([]campaign.Spec, 0, n*len(specs))
	for i := 0; i < n; i++ {
		for _, s := range specs {
			s.Seed += int64(i) * 1000
			out = append(out, s)
		}
	}
	return out
}

func asItems(specs []campaign.Spec, prop bool) []item {
	items := make([]item, len(specs))
	for i, s := range specs {
		items[i] = item{spec: s, prop: prop}
	}
	return items
}

// runOrder is the order in which a run executes the spec list: a
// permutation drawn from the benchmark seed.
//
// The seed deliberately does not touch the specs themselves. Offsetting the
// simulation seeds, as first planned, moves the work and not only the noise:
// serialization-byte faults draw their byte from the simulation RNG and now
// and then hit a ReplicaSet selector, which turns a 1.5 ms body experiment
// into a 0.4-0.8 s storm inside a 1.6 s pass; allocations per experiment
// moved by 1-3 % between seeds (README.md, "What the seed does"). With the
// specs fixed, counts repeat across seeds and every seed is checked against
// the committed golden outcomes; what the seed varies is cache, allocator
// and GC state at each experiment, which is the part of the input the
// program under test does react to.
func runOrder(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// kindsOf lists the workload kinds of a spec list in first-seen order: the
// kinds whose bootstrap snapshot and golden baseline a set-up must build.
func kindsOf(items []item) []workload.Kind {
	var kinds []workload.Kind
	seen := make(map[workload.Kind]bool)
	for _, it := range items {
		if !seen[it.spec.Workload] {
			seen[it.spec.Workload] = true
			kinds = append(kinds, it.spec.Workload)
		}
	}
	return kinds
}
