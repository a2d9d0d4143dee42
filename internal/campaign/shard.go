package campaign

import "github.com/mutiny-sim/mutiny/internal/workload"

// A campaign runs in two steps within one process: RunShard runs the
// generated spec matrix, and MergeShardOutputs folds its results in generated
// order and runs the refinement round (§V-C2), whose specs derive from the
// main aggregate. RunCampaign is the two in sequence; the benchmark times
// them apart.

// prepared is the deterministic front half of a campaign: the configured
// Runner, the recorded fields, and the fully generated main and propagation
// spec lists.
type prepared struct {
	runner         *Runner
	mainSpecs      []Spec
	propSpecs      []Spec
	fieldsRecorded map[workload.Kind]int
}

// prepare records fields and generates the full spec matrix.
func prepare(cfg Config) *prepared {
	workers := resolveParallelism(cfg.Parallelism)
	runner := NewRunner()
	runner.GoldenRuns = cfg.GoldenRuns
	runner.Parallelism = workers
	runner.ShareBootstrap = cfg.ShareBootstrap
	runner.ClusterConfig = cfg.Cluster

	p := &prepared{runner: runner, fieldsRecorded: make(map[workload.Kind]int)}
	for _, wl := range cfg.Workloads {
		rec := runner.Record(wl)
		p.fieldsRecorded[wl] = len(rec.Fields())
		p.mainSpecs = append(p.mainSpecs, sample(Generate(wl, rec), cfg.SampleStride)...)
		// Timed-fault matrices are never strided: they are small targeted
		// matrices (targets × axes), and a stride that divides a matrix's
		// period collapses it to a single axis — the stride knob exists to
		// tame the thousands-of-specs field matrix above.
		p.mainSpecs = append(p.mainSpecs, GenerateControlPlane(wl, cfg.Cluster.ControlPlaneReplicas)...)
		p.mainSpecs = append(p.mainSpecs, GenerateAdmission(wl, cfg.Cluster.AdmissionHooks)...)
		p.mainSpecs = append(p.mainSpecs, GenerateTopology(wl, cfg.Cluster.Zones)...)
		if !cfg.SkipPropagation {
			for _, component := range PropagationComponents() {
				p.propSpecs = append(p.propSpecs, sample(GeneratePropagation(wl, rec, component), cfg.SampleStride)...)
			}
		}
	}
	return p
}

// ShardOutput is a campaign's main and propagation results in generated
// order, before the merge.
type ShardOutput struct {
	Main           []*Result
	Prop           []*Result
	FieldsRecorded map[workload.Kind]int

	// runner, with its built baselines, runs the merge's refinement round.
	runner *Runner
}

// RunShard runs a campaign's experiments: field recording, golden
// baselines, and every main and propagation experiment of the generated
// matrix. The refinement round is NOT run here — it depends on the main
// aggregate and belongs to MergeShardOutputs.
func RunShard(cfg Config) *ShardOutput {
	cfg = cfg.withDefaults()
	workers := resolveParallelism(cfg.Parallelism)
	p := prepare(cfg)

	// Golden baselines are built up front (each internally parallel) so the
	// experiment workers never contend on a baseline build.
	for _, wl := range cfg.Workloads {
		p.runner.Baseline(wl)
	}

	progress := newProgressTicker(len(p.mainSpecs)+len(p.propSpecs), cfg.Progress)
	return &ShardOutput{
		Main:           runAll(p.mainSpecs, workers, p.runner, (*Worker).Run, progress.tick),
		Prop:           runAll(p.propSpecs, workers, p.runner, (*Worker).RunPropagation, progress.tick),
		FieldsRecorded: p.fieldsRecorded,
		runner:         p.runner,
	}
}

// MergeShardOutputs folds RunShard's one output into the full campaign
// Output: the main aggregate in generated order (so it does not depend on
// completion order), the refinement round run against it, and the Table VI
// cells.
func MergeShardOutputs(cfg Config, shards []*ShardOutput) *Output {
	cfg = cfg.withDefaults()
	shard := shards[0]
	out := &Output{
		Main:           NewAggregate(),
		Refinement:     NewAggregate(),
		FieldsRecorded: shard.FieldsRecorded,
		Runner:         shard.runner,
	}
	for _, res := range shard.Main {
		out.Main.Add(res)
	}

	if !cfg.SkipRefinement {
		refineSpecs := refinementSpecs(cfg, out.Main)
		progress := newProgressTicker(len(refineSpecs), cfg.Progress)
		for _, res := range runAll(refineSpecs, resolveParallelism(cfg.Parallelism), shard.runner, (*Worker).Run, progress.tick) {
			out.Refinement.Add(res)
		}
	}

	if !cfg.SkipPropagation {
		cells := make(map[string]*PropagationCell)
		for _, res := range shard.Prop {
			spec := res.Spec
			key := string(spec.Workload) + "/" + spec.Injection.SourcePrefix
			cell, ok := cells[key]
			if !ok {
				cell = &PropagationCell{Workload: spec.Workload, Component: spec.Injection.SourcePrefix}
				cells[key] = cell
			}
			cell.Injected++
			if res.PropPersisted {
				cell.Propagated++
			}
			if res.PropErrored {
				cell.Errored++
			}
		}
		for _, wl := range cfg.Workloads {
			for _, component := range PropagationComponents() {
				if cell, ok := cells[string(wl)+"/"+component]; ok {
					out.Propagation = append(out.Propagation, *cell)
				}
			}
		}
	}
	return out
}
