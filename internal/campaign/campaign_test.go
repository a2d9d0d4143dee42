package campaign

import (
	"fmt"
	"strings"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/classify"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// testRunner returns a runner with a reduced golden-run count to keep unit
// tests fast; the statistics only need a non-degenerate distribution.
func testRunner() *Runner {
	r := NewRunner()
	r.GoldenRuns = 12
	return r
}

func TestGoldenRunsClassifyAsNoFailure(t *testing.T) {
	r := testRunner()
	for _, wl := range workload.Kinds() {
		b := r.Baseline(wl)
		if b.FinalReadyMin <= 0 {
			t.Fatalf("%s: golden baseline has no ready replicas", wl)
		}
		// A fresh golden run must classify as No/NSI.
		res := r.Run(Spec{Workload: wl, Seed: goldenSeed(wl, 400)})
		if res.OF != classify.OFNone {
			t.Fatalf("%s: golden run classified as %s, want No", wl, res.OF)
		}
		if res.CF != classify.CFNSI {
			t.Fatalf("%s: golden run client verdict %s, want NSI", wl, res.CF)
		}
	}
}

// The paper's flagship example (§V-C1): corrupting the labels that bind
// pods to their controller makes the controller unable to identify its own
// pods — every replacement it spawns is unidentifiable too, and pods are
// created in an infinite loop. The injection lands on the ReplicaSet created
// by the deploy workload, on the apiserver→store channel where the
// selector-vs-template validation cannot see it.
func TestUncontrolledReplicationFromTemplateLabelCorruption(t *testing.T) {
	r := testRunner()
	res := r.Run(Spec{
		Workload: workload.Deploy,
		Seed:     777,
		Injection: &inject.Injection{
			Channel: inject.ChannelStore, Kind: spec.KindReplicaSet,
			FieldPath: "spec.template.labels[app]",
			Type:      inject.SetValue, Value: "mislabeled",
			// Occurrence 2 is the deployment controller's scale-up update:
			// the stored ReplicaSet then has replicas > 0 with a template
			// that can never match its selector. (At occurrence 1 — the
			// create, with replicas still 0 — the corruption instead blocks
			// the scale-up at the validation layer and yields LeR.)
			Occurrence: 2,
		},
	})
	if !res.Report.Fired {
		t.Fatal("injection did not fire")
	}
	if res.OF != classify.OFSta && res.OF != classify.OFOut {
		t.Fatalf("OF = %s (pods created: %d), want Sta or Out", res.OF, res.PodsCreated)
	}
	if res.PodsCreated < 30 {
		t.Fatalf("pods created = %d, expected uncontrolled replication", res.PodsCreated)
	}
}

// Dropping the transaction that creates a Deployment leaves the user
// believing it exists: fewer resources at steady state and an unreachable
// service, with no error ever surfaced (findings F1/F4).
func TestDroppedDeploymentCreate(t *testing.T) {
	r := testRunner()
	res := r.Run(Spec{
		Workload: workload.Deploy,
		Seed:     778,
		Injection: &inject.Injection{
			Channel: inject.ChannelStore, Kind: spec.KindDeployment,
			Type: inject.DropMessage, Occurrence: 1,
		},
	})
	if res.OF != classify.OFLeR {
		t.Fatalf("OF = %s, want LeR", res.OF)
	}
	if res.CF != classify.CFSU {
		t.Fatalf("CF = %s, want SU (client's target service never materialized)", res.CF)
	}
	if res.UserErrors != 0 {
		t.Fatalf("user saw %d errors; drop must be silent", res.UserErrors)
	}
}

// A high-order bit flip in a replica count massively over-provisions the
// service (MoR).
func TestReplicasBitFlipOverprovisions(t *testing.T) {
	r := testRunner()
	res := r.Run(Spec{
		Workload: workload.ScaleUp,
		Seed:     779,
		Injection: &inject.Injection{
			Channel: inject.ChannelStore, Kind: spec.KindDeployment,
			FieldPath: "spec.replicas",
			Type:      inject.BitFlip, Bit: 4, // 2 → 18
			Occurrence: 1,
		},
	})
	if res.OF != classify.OFMoR {
		t.Fatalf("OF = %s, want MoR", res.OF)
	}
}

// Corrupting a bound pod's nodeName makes the scheduler distrust its cache
// and restart — the §V-C timing-failure example.
func TestNodeNameCorruptionRestartsScheduler(t *testing.T) {
	r := testRunner()
	res := r.Run(Spec{
		Workload: workload.Failover,
		Seed:     780,
		Injection: &inject.Injection{
			Channel: inject.ChannelStore, Kind: spec.KindPod,
			FieldPath: "spec.nodeName",
			Type:      inject.SetValue, Value: "ghost-node",
			// Late occurrence: hit a bound pod's status-update write.
			Occurrence: 3,
		},
	})
	if !res.Report.Fired {
		t.Skip("injection did not fire at this occurrence; covered by the campaign")
	}
	if res.OF == classify.OFNone {
		t.Fatalf("OF = %s, want a visible failure after nodeName corruption", res.OF)
	}
}

// A node-address flip is harmless at the orchestrator level (the ~70% No
// bucket). The client verdict may still read HRT occasionally — the paper
// attributes its non-empty No→HRT cell to "the natural nondeterministic
// timing behavior of the orchestrator" — so only exclude real failures.
func TestHarmlessInjection(t *testing.T) {
	r := testRunner()
	res := r.Run(Spec{
		Workload: workload.Deploy,
		Seed:     781,
		Injection: &inject.Injection{
			Channel: inject.ChannelStore, Kind: spec.KindNode,
			FieldPath: "status.address",
			Type:      inject.BitFlip, CharIndex: 0,
			Occurrence: 2,
		},
	})
	if res.OF != classify.OFNone {
		t.Fatalf("OF = %s, want No", res.OF)
	}
	if res.CF == classify.CFSU || res.CF == classify.CFIA {
		t.Fatalf("CF = %s, want NSI (or noise-induced HRT at worst)", res.CF)
	}
}

func TestGenerateCampaignShape(t *testing.T) {
	r := testRunner()
	rec := r.Record(workload.Deploy)
	specs := Generate(workload.Deploy, rec)
	if len(specs) < 500 {
		t.Fatalf("campaign has only %d experiments; the field inventory looks too small", len(specs))
	}
	byGroup := make(map[InjGroup]int)
	byType := make(map[inject.FaultType]int)
	for _, s := range specs {
		if s.Injection == nil {
			t.Fatal("generated spec without injection")
		}
		byGroup[GroupOf(s.Injection.Type)]++
		byType[s.Injection.Type]++
	}
	if byGroup[GroupBitFlip] == 0 || byGroup[GroupSet] == 0 || byGroup[GroupDrop] == 0 {
		t.Fatalf("missing injection group: %v", byGroup)
	}
	kinds := rec.Kinds()
	if len(kinds) < 8 {
		t.Fatalf("only %d kinds observed on the wire: %v", len(kinds), kinds)
	}
	if byType[inject.DropMessage] != len(kinds)*dropOccurrences {
		t.Fatalf("drop experiments = %d, want %d", byType[inject.DropMessage], len(kinds)*dropOccurrences)
	}
	// Bit-flip experiments must outnumber value sets (two flips per scalar
	// field vs one set), as in Table IV.
	if byType[inject.BitFlip] <= byType[inject.SetValue] {
		t.Fatalf("bit-flips (%d) should outnumber value-sets (%d)", byType[inject.BitFlip], byType[inject.SetValue])
	}
}

// TestStrideNeverThinsTimedFaultMatrices: the stride subsamples the field
// matrix only. The timed-fault matrices are small and periodic (targets ×
// axes), so a stride sharing a factor with the period would drop whole axes
// (stride 3 over replicas × 3 axes kept only the apiserver crashes).
func TestStrideNeverThinsTimedFaultMatrices(t *testing.T) {
	cfg := Config{
		Workloads:            []workload.Kind{workload.Policy},
		SampleStride:         101,
		ControlPlaneReplicas: 3,
		AdmissionHooks:       3,
		Zones:                3,
		SkipPropagation:      true,
	}
	byAxis := make(map[inject.FaultType]int)
	for _, s := range prepare(cfg.withDefaults()).mainSpecs {
		byAxis[s.Injection.Type]++
	}
	for family, perAxis := range map[inject.Family]int{
		inject.FamilyControlPlane: 3,     // replicas
		inject.FamilyAdmission:    3 * 2, // hooks × failure policies
		inject.FamilyTopology:     2,     // non-core zones
	} {
		for _, axis := range inject.TimedFaults(family) {
			if byAxis[axis] != perAxis {
				t.Errorf("%s: %d specs survived the stride, want %d", axis, byAxis[axis], perAxis)
			}
		}
	}
	if n := byAxis[inject.BitFlip] + byAxis[inject.SetValue]; n == 0 || n > 30 {
		t.Errorf("field matrix was not strided: %d field specs", n)
	}
}

func TestFieldCategorization(t *testing.T) {
	tests := []struct {
		path string
		want FieldCategory
	}{
		{"metadata.labels[app]", CategoryDependency},
		{"spec.selector.matchLabels[app]", CategoryDependency},
		{"metadata.ownerReferences[0].uid", CategoryDependency},
		{"subsets[0].addresses[0].targetRef.name", CategoryDependency},
		{"metadata.managedBy", CategoryDependency},
		{"metadata.name", CategoryIdentity},
		{"metadata.namespace", CategoryIdentity},
		{"metadata.uid", CategoryIdentity},
		{"spec.nodeName", CategoryIdentity},
		{"spec.ports[0].port", CategoryNetworking},
		{"spec.clusterIP", CategoryNetworking},
		{"spec.podCIDR", CategoryNetworking},
		{"status.podIP", CategoryNetworking},
		{"spec.replicas", CategoryReplicas},
		{"spec.containers[0].image", CategoryImageCommand},
		{"spec.template.spec.containers[0].command[0]", CategoryImageCommand},
		{"metadata.creationTimestamp", CategoryOther},
		{"status.phase", CategoryOther},
	}
	for _, tt := range tests {
		if got := Categorize(tt.path); got != tt.want {
			t.Errorf("Categorize(%q) = %s, want %s", tt.path, got, tt.want)
		}
	}
}

func TestSemanticValues(t *testing.T) {
	if vals := SemanticValues("spec.replicas", 2); len(vals) == 0 {
		t.Fatal("no semantic values for int field")
	}
	vals := SemanticValues("spec.nodeName", 1)
	if len(vals) != 1 || vals[0].(string) != "ghost-node" {
		t.Fatalf("nodeName semantic values = %v", vals)
	}
	if vals := SemanticValues("status.ready", 3); vals != nil {
		t.Fatalf("bool fields need no semantic values, got %v", vals)
	}
}

// A shard that ran another matrix must not merge, even with the merge's spec
// counts: without hooks installed, FailurePolicy changes the cluster every
// experiment ran on but not one spec.
func TestMergeRejectsAnotherMatrix(t *testing.T) {
	cfg := Config{
		Workloads:       []workload.Kind{workload.Deploy},
		SampleStride:    251,
		SkipRefinement:  true,
		SkipPropagation: true,
		Parallelism:     1,
	}
	other := cfg
	other.FailurePolicy = "Fail"
	p, q := prepare(cfg.withDefaults()), prepare(other.withDefaults())
	if len(p.mainSpecs) == 0 || len(p.mainSpecs) != len(q.mainSpecs) || len(p.propSpecs) != len(q.propSpecs) {
		t.Fatalf("setup: %d/%d and %d/%d specs, want equal non-zero counts",
			len(p.mainSpecs), len(p.propSpecs), len(q.mainSpecs), len(q.propSpecs))
	}
	// Every index covered, so only the fingerprint can object.
	shard := &ShardOutput{Shards: 1, MainTotal: len(q.mainSpecs), PropTotal: len(q.propSpecs), Fingerprint: q.fingerprint}
	for i := range q.mainSpecs {
		shard.Main = append(shard.Main, ShardResult{Index: i})
	}
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "ran matrix") {
			t.Fatalf("merging a shard of the FailurePolicy=Fail matrix into the default one: panic %v, want a fingerprint mismatch", r)
		}
	}()
	MergeShardOutputs(cfg, []*ShardOutput{shard})
}
