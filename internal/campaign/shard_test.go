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

// TestShardingIsBitIdentical: a RunShard output that took a JSON round trip
// merges bit-identically to the sequential RunCampaign — same golden tables,
// same OF/CF classifications, same propagation cells. The round trip
// exercises the tagged wire values and forces the merge to regenerate the
// specs, since a decoded output carries no in-process state.
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

	cfg := base
	cfg.Parallelism = 2
	blob, err := json.Marshal(campaign.RunShard(cfg))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	decoded := new(campaign.ShardOutput)
	if err := json.Unmarshal(blob, decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	merged := campaign.MergeShardOutputs(cfg, []*campaign.ShardOutput{decoded})

	if !reflect.DeepEqual(ref.Main, merged.Main) {
		t.Errorf("Main aggregate diverged (%d vs %d results)", ref.Main.Total(), merged.Main.Total())
	}
	if !reflect.DeepEqual(ref.Refinement, merged.Refinement) {
		t.Errorf("Refinement aggregate diverged (%d vs %d results)", ref.Refinement.Total(), merged.Refinement.Total())
	}
	if !reflect.DeepEqual(ref.Propagation, merged.Propagation) {
		t.Errorf("Propagation cells diverged:\n  ref=%+v\n  got=%+v", ref.Propagation, merged.Propagation)
	}
	if !reflect.DeepEqual(ref.FieldsRecorded, merged.FieldsRecorded) {
		t.Errorf("FieldsRecorded diverged: %v vs %v", ref.FieldsRecorded, merged.FieldsRecorded)
	}
	if got := renderAll(t, merged); !bytes.Equal(refTables, got) {
		t.Errorf("rendered golden tables diverged from the sequential run")
	}
}

// FuzzShardResultJSON feeds the result wire's hand-written decoder hostile
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
