package campaign

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"github.com/mutiny-sim/mutiny/internal/workload"
)

// A campaign runs in two steps: RunShard runs the generated spec matrix, and
// MergeShardOutputs folds its results in generated order and runs the
// refinement round (§V-C2), whose specs derive from the merged main aggregate.
//
// Campaign generation is deterministic: field recording, spec generation,
// golden seeds and the refinement derivation depend only on Config. So a
// result travels keyed by its spec's index, and a merge that has only
// decoded results regenerates the matrix from Config and grafts each result
// back onto its spec. The JSON wire (ShardOutput) therefore never serializes
// a Spec, an Injection, or anything `any`-typed except the injection
// report's observed values, which travel as explicitly tagged WireValues (an
// int64 that round-tripped through a JSON float64 would corrupt the
// refinement round's field-kind inference). Only the tests and the benchmark
// use that wire, which the benchmark times as campaign.pipeline_s and
// campaign.shard_roundtrip_ms; it goes when the benchmark stops timing it.

// prepared is the deterministic front half of a campaign: the configured
// Runner, the recorded fields, and the fully generated main and propagation
// spec lists. Two prepares of the same Config produce identical spec lists
// in identical order — the property merging a decoded output rests on.
type prepared struct {
	runner         *Runner
	mainSpecs      []Spec
	propSpecs      []Spec
	fieldsRecorded map[workload.Kind]int
	// fingerprint identifies the matrix (see matrixFingerprint).
	fingerprint string
}

// prepare records fields and generates the full spec matrix.
func prepare(cfg Config) *prepared {
	workers := resolveParallelism(cfg.Parallelism)
	runner := NewRunner()
	runner.GoldenRuns = cfg.GoldenRuns
	runner.Parallelism = workers
	runner.ShareBootstrap = cfg.ShareBootstrap
	runner.ClusterConfig.ControlPlaneReplicas = cfg.ControlPlaneReplicas
	runner.ClusterConfig.AdmissionHooks = cfg.AdmissionHooks
	runner.ClusterConfig.FailurePolicy = cfg.FailurePolicy
	if cfg.Workers > 0 {
		runner.ClusterConfig.Workers = cfg.Workers
	}
	runner.ClusterConfig.Zones = cfg.Zones
	runner.ClusterConfig.EdgeNodes = cfg.EdgeNodes

	p := &prepared{runner: runner, fieldsRecorded: make(map[workload.Kind]int)}
	for _, wl := range cfg.Workloads {
		rec := runner.Record(wl)
		p.fieldsRecorded[wl] = len(rec.Fields())
		p.mainSpecs = append(p.mainSpecs, sample(Generate(wl, rec), cfg.SampleStride)...)
		// Timed-fault matrices are never strided: they are small targeted
		// matrices (targets × axes), and a stride that divides a matrix's
		// period collapses it to a single axis — the stride knob exists to
		// tame the thousands-of-specs field matrix above.
		p.mainSpecs = append(p.mainSpecs, GenerateControlPlane(wl, cfg.ControlPlaneReplicas)...)
		p.mainSpecs = append(p.mainSpecs, GenerateAdmission(wl, cfg.AdmissionHooks)...)
		p.mainSpecs = append(p.mainSpecs, GenerateTopology(wl, cfg.Zones)...)
		if !cfg.SkipPropagation {
			for _, component := range PropagationComponents() {
				p.propSpecs = append(p.propSpecs, sample(GeneratePropagation(wl, rec, component), cfg.SampleStride)...)
			}
		}
	}
	p.fingerprint = matrixFingerprint(runner.ClusterConfig.Fingerprint(), p.mainSpecs, p.propSpecs)
	return p
}

// matrixFingerprint hashes what a run and its merge must agree on: the
// cluster every experiment runs on and every generated spec, in order. Equal
// spec counts do not imply it — a FailurePolicy, say, changes the cluster and
// not the matrix.
func matrixFingerprint(cluster string, lists ...[]Spec) string {
	h := fnv.New64a()
	fmt.Fprintln(h, cluster)
	for _, specs := range lists {
		fmt.Fprintln(h, len(specs))
		for _, s := range specs {
			fmt.Fprintf(h, "%s %d %s\n", s.Workload, s.Seed, s.Injection.Label())
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// WireValue is an explicitly type-tagged scalar for the JSON wire.
// Kind is "int", "str", or "bool"; absent (nil pointer) means the value was
// nil. The tag preserves the Go dynamic type across JSON, which float64
// round-tripping would destroy.
type WireValue struct {
	Kind string `json:"kind"`
	Int  int64  `json:"int,omitempty"`
	Str  string `json:"str,omitempty"`
	Bool bool   `json:"bool,omitempty"`
}

func toWireValue(v any) *WireValue {
	switch x := v.(type) {
	case nil:
		return nil
	case int64:
		return &WireValue{Kind: "int", Int: x}
	case int:
		return &WireValue{Kind: "int", Int: int64(x)}
	case bool:
		return &WireValue{Kind: "bool", Bool: x}
	case string:
		return &WireValue{Kind: "str", Str: x}
	default:
		return &WireValue{Kind: "str", Str: fmt.Sprint(x)}
	}
}

func (w *WireValue) value() any {
	if w == nil {
		return nil
	}
	switch w.Kind {
	case "int":
		return w.Int
	case "bool":
		return w.Bool
	default:
		return w.Str
	}
}

// ShardResult is one experiment's outcome on the wire: the Result at
// Index, the spec's position in the full generated list. Its JSON carries the
// Result itself minus what JSON cannot: the Spec, which the merger
// regenerates from Config and grafts back on by Index, and the report's
// observed values, which travel type-tagged beside it.
type ShardResult struct {
	Index int
	Result
}

// shardResultJSON is ShardResult's wire shape.
type shardResultJSON struct {
	Index int `json:"index"`
	*Result
	OldValue *WireValue `json:"oldValue,omitempty"`
	NewValue *WireValue `json:"newValue,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (sr ShardResult) MarshalJSON() ([]byte, error) {
	return json.Marshal(shardResultJSON{
		sr.Index, &sr.Result, toWireValue(sr.Report.OldValue), toWireValue(sr.Report.NewValue),
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (sr *ShardResult) UnmarshalJSON(data []byte) error {
	wire := shardResultJSON{Result: &sr.Result}
	err := json.Unmarshal(data, &wire)
	sr.Index = wire.Index
	sr.Report.OldValue, sr.Report.NewValue = wire.OldValue.value(), wire.NewValue.value()
	return err
}

// result reassembles the full Result around the spec at its index. Both an
// in-process and a decoded output merge through here.
func (sr ShardResult) result(spec Spec) *Result {
	res := sr.Result
	res.Spec = spec
	return &res
}

// ShardOutput is a campaign's main and propagation results, keyed by
// generated spec index, before the merge. It is JSON-serializable.
type ShardOutput struct {
	MainTotal      int                   `json:"mainTotal"` // full matrix size, for validation
	PropTotal      int                   `json:"propTotal"`
	Fingerprint    string                `json:"fingerprint"` // the matrix's, for validation
	Main           []ShardResult         `json:"main"`
	Prop           []ShardResult         `json:"prop"`
	FieldsRecorded map[workload.Kind]int `json:"fieldsRecorded"`

	// prep is carried only within a process: RunCampaign hands its runner
	// (with built baselines and recorded fields) straight to the merge so
	// nothing is recomputed. A deserialized ShardOutput has prep == nil and
	// the merge prepares its own.
	prep *prepared
}

// RunShard runs a campaign's experiments: field recording, golden
// baselines, and every main and propagation experiment of the generated
// matrix. The refinement round is NOT run here — it depends on the merged
// main aggregate and belongs to MergeShardOutputs.
func RunShard(cfg Config) *ShardOutput {
	cfg = cfg.withDefaults()
	workers := resolveParallelism(cfg.Parallelism)
	p := prepare(cfg)

	out := &ShardOutput{
		MainTotal:      len(p.mainSpecs),
		PropTotal:      len(p.propSpecs),
		Fingerprint:    p.fingerprint,
		FieldsRecorded: p.fieldsRecorded,
		prep:           p,
	}

	// Golden baselines are built up front (each internally parallel) so the
	// experiment workers never contend on a baseline build.
	for _, wl := range cfg.Workloads {
		p.runner.Baseline(wl)
	}

	progress := newProgressTicker(len(p.mainSpecs)+len(p.propSpecs), cfg.Progress)

	out.Main = make([]ShardResult, len(p.mainSpecs))
	forEachWorker(len(p.mainSpecs), workers, p.runner, func(w *Worker, i int) {
		out.Main[i] = ShardResult{i, *w.Run(p.mainSpecs[i])}
		progress.tick()
	})

	out.Prop = make([]ShardResult, len(p.propSpecs))
	forEachWorker(len(p.propSpecs), workers, p.runner, func(w *Worker, i int) {
		out.Prop[i] = ShardResult{i, *w.RunPropagation(p.propSpecs[i])}
		progress.tick()
	})
	return out
}

// MergeShardOutputs reassembles outputs into the full campaign Output:
// results slot into generated-spec order by index (so the aggregates do not
// depend on completion order), then the refinement round runs here, against
// the merged main aggregate. The outputs must jointly cover every index
// exactly once — a missing or duplicated index is a programming error and
// panics, as is an output whose matrix fingerprint differs from the merge's.
//
// When the outputs came over the wire (no in-process runner), the merge
// re-prepares locally: recording and generation are deterministic, so the
// regenerated specs are the ones the outputs' experiments ran.
func MergeShardOutputs(cfg Config, shards []*ShardOutput) *Output {
	cfg = cfg.withDefaults()

	var p *prepared
	for _, s := range shards {
		if s.prep != nil {
			p = s.prep
			break
		}
	}
	if p == nil {
		p = prepare(cfg)
	}

	out := &Output{
		Main:           NewAggregate(),
		Refinement:     NewAggregate(),
		FieldsRecorded: p.fieldsRecorded,
		Runner:         p.runner,
	}

	mainRes := make([]*Result, len(p.mainSpecs))
	propRes := make([]*Result, len(p.propSpecs))
	for _, s := range shards {
		if s.MainTotal != len(p.mainSpecs) || s.PropTotal != len(p.propSpecs) {
			panic(fmt.Sprintf("campaign: output generated %d/%d specs, merge generated %d/%d — configs differ",
				s.MainTotal, s.PropTotal, len(p.mainSpecs), len(p.propSpecs)))
		}
		if s.Fingerprint != p.fingerprint {
			panic(fmt.Sprintf("campaign: output ran matrix %s, merge generated %s — configs differ",
				s.Fingerprint, p.fingerprint))
		}
		for _, sr := range s.Main {
			if sr.Index < 0 || sr.Index >= len(mainRes) || mainRes[sr.Index] != nil {
				panic(fmt.Sprintf("campaign: bad or duplicate main index %d", sr.Index))
			}
			mainRes[sr.Index] = sr.result(p.mainSpecs[sr.Index])
		}
		for _, sr := range s.Prop {
			if sr.Index < 0 || sr.Index >= len(propRes) || propRes[sr.Index] != nil {
				panic(fmt.Sprintf("campaign: bad or duplicate prop index %d", sr.Index))
			}
			propRes[sr.Index] = sr.result(p.propSpecs[sr.Index])
		}
	}
	for i, res := range mainRes {
		if res == nil {
			panic(fmt.Sprintf("campaign: main index %d missing from the outputs", i))
		}
		out.Main.Add(res)
	}

	workers := resolveParallelism(cfg.Parallelism)
	if !cfg.SkipRefinement {
		refineSpecs := refinementSpecs(cfg, out.Main)
		progress := newProgressTicker(len(refineSpecs), cfg.Progress)
		for _, res := range runAll(refineSpecs, workers, p.runner, (*Worker).Run, progress.tick) {
			out.Refinement.Add(res)
		}
	}

	if !cfg.SkipPropagation {
		cells := make(map[string]*PropagationCell)
		for i, spec := range p.propSpecs {
			res := propRes[i]
			if res == nil {
				panic(fmt.Sprintf("campaign: prop index %d missing from the outputs", i))
			}
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
