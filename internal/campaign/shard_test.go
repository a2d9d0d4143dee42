package campaign_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/campaign"
	"github.com/mutiny-sim/mutiny/internal/classify"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/report"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// renderAll renders every golden table an Output feeds, so byte-comparing
// the result checks OF/CF classifications, refinement, propagation, and the
// HA windows at once.
func renderAll(t *testing.T, out *campaign.Output) []byte {
	t.Helper()
	var buf bytes.Buffer
	report.Table3(&buf, out.Main)
	report.Table4(&buf, out.Main)
	report.Table5(&buf, out.Main)
	report.Table4(&buf, out.Refinement)
	report.Table6(&buf, out.Propagation)
	report.HATable(&buf, out.Main)
	return buf.Bytes()
}

// TestShardingIsBitIdentical: the index-ordered merge of shards ∈ {1, 2, 4}
// must be bit-identical to the sequential single-process run — same golden
// tables, same OF/CF classifications, same propagation cells. Each shard
// output takes a JSON round trip before merging, exactly as it would
// crossing the process boundary in the multi-process driver (so the tagged
// wire values are exercised, and the merge is forced to regenerate specs).
func TestShardingIsBitIdentical(t *testing.T) {
	base := campaign.Config{
		Workloads:      []workload.Kind{workload.Deploy, workload.ScaleUp},
		GoldenRuns:     3,
		SampleStride:   101,
		ShareBootstrap: true,
	}

	seq := base
	seq.Parallelism = 1
	ref := campaign.RunCampaign(seq)
	refTables := renderAll(t, ref)
	if ref.Main.Total() == 0 {
		t.Fatal("reference campaign ran zero main experiments; the test is vacuous")
	}

	for _, shards := range []int{1, 2, 4} {
		outs := make([]*campaign.ShardOutput, shards)
		for i := 0; i < shards; i++ {
			cfg := base
			cfg.Parallelism = 2
			cfg.Shards, cfg.ShardIndex = shards, i
			so := campaign.RunShard(cfg)

			// Simulate the process boundary: serialize, then decode into a
			// fresh ShardOutput with no in-process state attached.
			blob, err := json.Marshal(so)
			if err != nil {
				t.Fatalf("shards=%d: marshal shard %d: %v", shards, i, err)
			}
			decoded := new(campaign.ShardOutput)
			if err := json.Unmarshal(blob, decoded); err != nil {
				t.Fatalf("shards=%d: unmarshal shard %d: %v", shards, i, err)
			}
			outs[i] = decoded
		}
		cfg := base
		cfg.Parallelism = 2
		cfg.Shards = shards
		merged := campaign.MergeShardOutputs(cfg, outs)

		if !reflect.DeepEqual(ref.Main, merged.Main) {
			t.Errorf("shards=%d: Main aggregate diverged (%d vs %d results)", shards, ref.Main.Total(), merged.Main.Total())
		}
		if !reflect.DeepEqual(ref.Refinement, merged.Refinement) {
			t.Errorf("shards=%d: Refinement aggregate diverged (%d vs %d results)", shards, ref.Refinement.Total(), merged.Refinement.Total())
		}
		if !reflect.DeepEqual(ref.Propagation, merged.Propagation) {
			t.Errorf("shards=%d: Propagation cells diverged:\n  ref=%+v\n  got=%+v", shards, ref.Propagation, merged.Propagation)
		}
		if !reflect.DeepEqual(ref.FieldsRecorded, merged.FieldsRecorded) {
			t.Errorf("shards=%d: FieldsRecorded diverged: %v vs %v", shards, ref.FieldsRecorded, merged.FieldsRecorded)
		}
		if got := renderAll(t, merged); !bytes.Equal(refTables, got) {
			t.Errorf("shards=%d: rendered golden tables diverged from the sequential run", shards)
		}
	}
}

// TestShardIndicesPartition: every index lands in exactly one shard.
func TestShardIndicesPartition(t *testing.T) {
	base := campaign.Config{
		Workloads:      []workload.Kind{workload.Deploy},
		GoldenRuns:     3,
		SampleStride:   251,
		SkipRefinement: true,
		ShareBootstrap: true,
		Parallelism:    1,
	}
	const shards = 3
	seen := make(map[int]int)
	var mainTotal int
	for i := 0; i < shards; i++ {
		cfg := base
		cfg.Shards, cfg.ShardIndex = shards, i
		so := campaign.RunShard(cfg)
		mainTotal = so.MainTotal
		for _, sr := range so.Main {
			seen[sr.Index]++
			if sr.Index%shards != i {
				t.Errorf("index %d ran in shard %d, want shard %d", sr.Index, i, sr.Index%shards)
			}
		}
	}
	if len(seen) != mainTotal {
		t.Fatalf("shards covered %d of %d main indices", len(seen), mainTotal)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("index %d ran %d times", idx, n)
		}
	}
}

// FuzzShardResultJSON feeds the shard wire's hand-written decoder hostile
// input: it must never panic, and whatever it accepts must survive a
// Marshal→Unmarshal round trip unchanged, type-tagged values included.
func FuzzShardResultJSON(f *testing.F) {
	for _, sr := range []campaign.ShardResult{
		{Index: 7, Result: campaign.Result{OF: classify.OFSta, CF: classify.CFSU, Z: 2.5, UserErrors: 3,
			Report: inject.Report{Fired: true, Instance: "default/web", OldValue: int64(3), NewValue: int64(-9)}}},
		{Index: 1, Result: campaign.Result{Report: inject.Report{OldValue: "web", NewValue: "wec"}, PropPersisted: true}},
		{Index: 2, Result: campaign.Result{Report: inject.Report{OldValue: true, NewValue: false}, FailoverMillis: 1.5}},
		{Index: 3, Result: campaign.Result{Report: inject.Report{OldValue: 80, NewValue: nil}}},
		{},
	} {
		blob, err := json.Marshal(sr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var first campaign.ShardResult
		if json.Unmarshal(data, &first) != nil {
			return
		}
		blob, err := json.Marshal(first)
		if err != nil {
			t.Fatalf("re-encoding an accepted input: %v", err)
		}
		var second campaign.ShardResult
		if err := json.Unmarshal(blob, &second); err != nil {
			t.Fatalf("decoding %s: %v", blob, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("not a fixpoint:\n  first  %#v\n  second %#v\n  wire   %s", first, second, blob)
		}
	})
}
