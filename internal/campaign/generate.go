package campaign

import (
	"strings"
	"time"

	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/netsim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// Generation rules from §IV-C:
//   - each integer field: flip a low- and a high-order bit (1st and 5th),
//     and set the 0 value;
//   - each string field: flip the least-significant bit of the first two
//     characters, and set the empty string;
//   - each boolean field: invert;
//   - each field experiment runs at occurrence indexes 1, 2, and 3;
//   - each resource kind: message drops at occurrence indexes 1..10 and a
//     set of random serialization-byte corruptions.
const (
	occurrences     = 3
	dropOccurrences = 10
	protoPerKind    = 2 // byte-corruption variants per kind per occurrence
	lowBit, highBit = 0, 4
	firstChar       = 0
	secondChar      = 1
)

// Generate derives the injection campaign for one workload from its
// recorded field inventory.
func Generate(kind workload.Kind, rec *inject.Recorder) []Spec {
	var specs []Spec
	seed := campaignSeedBase(kind)
	add := func(in inject.Injection) {
		specs = append(specs, Spec{Workload: kind, Injection: &in, Seed: seed})
		seed++
	}

	for _, f := range rec.Fields() {
		for occ := 1; occ <= occurrences; occ++ {
			base := inject.Injection{
				Channel: inject.ChannelStore, Kind: f.Kind,
				FieldPath: f.Path, Occurrence: occ,
			}
			switch f.FieldKind {
			case codec.FieldInt:
				for _, bit := range []int{lowBit, highBit} {
					in := base
					in.Type = inject.BitFlip
					in.Bit = bit
					add(in)
				}
				in := base
				in.Type = inject.SetValue
				in.Value = int64(0)
				add(in)
			case codec.FieldString:
				for _, ch := range []int{firstChar, secondChar} {
					in := base
					in.Type = inject.BitFlip
					in.CharIndex = ch
					add(in)
				}
				in := base
				in.Type = inject.SetValue
				in.Value = ""
				add(in)
			case codec.FieldBool:
				in := base
				in.Type = inject.BitFlip
				add(in)
			}
		}
	}

	for _, k := range rec.Kinds() {
		for occ := 1; occ <= dropOccurrences; occ++ {
			add(inject.Injection{
				Channel: inject.ChannelStore, Kind: k,
				Type: inject.DropMessage, Occurrence: occ,
			})
		}
		for v := 0; v < protoPerKind; v++ {
			for occ := 1; occ <= occurrences; occ++ {
				add(inject.Injection{
					Channel: inject.ChannelStore, Kind: k,
					Type: inject.FlipProtoByte, Occurrence: occ,
				})
			}
		}
	}
	return specs
}

// GenerateCriticalRefinement builds the §V-C2 refinement round: for fields
// that caused critical failures, additional data-set values specific to
// each field's semantics.
func GenerateCriticalRefinement(kind workload.Kind, fields []inject.RecordedField) []Spec {
	var specs []Spec
	seed := campaignSeedBase(kind) + 500_000
	for _, f := range fields {
		for _, val := range SemanticValues(f.Path, f.FieldKind) {
			for occ := 1; occ <= occurrences; occ++ {
				in := inject.Injection{
					Channel: inject.ChannelStore, Kind: f.Kind,
					FieldPath: f.Path, Type: inject.SetValue,
					Value: val, Occurrence: occ,
				}
				specs = append(specs, Spec{Workload: kind, Injection: &in, Seed: seed})
				seed++
			}
		}
	}
	return specs
}

// SemanticValues proposes wrong-but-plausible values for a field, driven by
// its path semantics (the "data-set values specific to the semantics of
// each critical field").
func SemanticValues(path string, kind codec.FieldKind) []any {
	switch kind {
	case codec.FieldInt:
		return []any{int64(-1), int64(1 << 20)}
	case codec.FieldBool:
		return nil // inversion already covers both values
	}
	lower := strings.ToLower(path)
	switch {
	case strings.Contains(lower, "nodename"):
		return []any{"ghost-node"}
	case strings.Contains(lower, "namespace"):
		return []any{"phantom-ns"}
	case strings.Contains(lower, "uid"):
		return []any{"uid-999999"}
	case strings.Contains(lower, "image"):
		return []any{"registry.local/doesnotexist:9.9"}
	case strings.Contains(lower, "command"):
		return []any{"segfault"}
	case strings.Contains(lower, "clusterip") || strings.HasSuffix(lower, ".ip") || strings.Contains(lower, "address"):
		return []any{"10.99.99.99"}
	case strings.Contains(lower, "cidr"):
		return []any{"not-a-cidr"}
	case strings.Contains(lower, "protocol"):
		return []any{"SCTP"}
	case strings.Contains(lower, "label") || strings.Contains(lower, "selector"):
		return []any{"mislabeled"}
	case strings.Contains(lower, "name"):
		return []any{"wrong-name"}
	default:
		return []any{"wrong-value"}
	}
}

// Timed-fault timeline: the fault strikes shortly after the workload starts
// so the failover window overlaps the measurement window, and heals with
// margin before the window closes so reconvergence is observable too.
const (
	timedFaultAfter = 3 * time.Second
	timedFaultHeal  = 18 * time.Second
)

// generateTimed builds one family's fault-axis matrix: every target in
// [first, targets) × every axis of the family in table order × every variant.
// A variant pre-fills the injection fields the family keys its table rows on;
// type, target and timeline are stamped here. Seeds count up from the
// workload's campaign base plus seedOffset.
func generateTimed(kind workload.Kind, f inject.Family, seedOffset int64, first, targets int, variants func(target int) []inject.Injection) []Spec {
	var specs []Spec
	seed := campaignSeedBase(kind) + seedOffset
	axes := inject.TimedFaults(f)
	for target := first; target < targets; target++ {
		for _, t := range axes {
			for _, in := range variants(target) {
				in.Type, in.Replica, in.After, in.Heal = t, target, timedFaultAfter, timedFaultHeal
				specs = append(specs, Spec{Workload: kind, Injection: &in, Seed: seed})
				seed++
			}
		}
	}
	return specs
}

// GenerateControlPlane derives the HA fault-axis campaign: per control-plane
// replica, an apiserver crash (with restart), a master partition (healed),
// and a store-replica loss (restored). Empty when the cluster is not
// replicated — the axes need survivors to fail over to.
func GenerateControlPlane(kind workload.Kind, replicas int) []Spec {
	if replicas < 2 {
		return nil
	}
	return generateTimed(kind, inject.FamilyControlPlane, 900_000, 0, replicas, func(int) []inject.Injection {
		return []inject.Injection{{}}
	})
}

// GenerateAdmission derives the admission fault-axis campaign: for every
// registered webhook hook, each webhook fault (backend down, latency past
// timeout, wrong selector, missing failure policy) under both failure-policy
// regimes — the fail-closed vs fail-open contrast the admission table
// renders. The policy rides on the injection spec, so one bootstrap snapshot
// per workload serves both regimes (the policy is behaviorally inert while
// every hook is healthy). Empty when no hooks are configured.
func GenerateAdmission(kind workload.Kind, hooks int) []Spec {
	return generateTimed(kind, inject.FamilyAdmission, 800_000, 0, hooks, func(int) []inject.Injection {
		return []inject.Injection{{Policy: "Fail"}, {Policy: "Ignore"}}
	})
}

// GenerateTopology derives the cloud-edge topology fault-axis campaign: for
// every non-core zone, an edge-link flap, a zone partition, and a mass
// node-kill — all healed within the window so reconvergence is observable.
// Injection.Value carries the zone name, so aggregation and a merge of decoded
// results key the per-zone rows without a cluster handle. Empty on flat
// clusters.
func GenerateTopology(kind workload.Kind, zones int) []Spec {
	return generateTimed(kind, inject.FamilyTopology, 600_000, 1, zones, func(zone int) []inject.Injection {
		return []inject.Injection{{Value: netsim.ZoneName(zone, zones)}}
	})
}

// ComponentKinds maps the injected component (Table VI) to the resource
// kinds it writes; the propagation campaign injects into the fields of
// those kinds on the component→apiserver channel.
var ComponentKinds = map[string][]spec.Kind{
	"kcm": {spec.KindPod, spec.KindReplicaSet, spec.KindDeployment,
		spec.KindDaemonSet, spec.KindEndpoints, spec.KindNode},
	"scheduler": {spec.KindPod},
	"kubelet-":  {spec.KindPod, spec.KindNode},
}

// PropagationComponents lists the injected components in paper order.
func PropagationComponents() []string { return []string{"kcm", "scheduler", "kubelet-"} }

// GeneratePropagation builds the Table VI campaign: one bit-flip per
// recorded field of the kinds each component writes, on the request channel.
func GeneratePropagation(kind workload.Kind, rec *inject.Recorder, component string) []Spec {
	kinds := make(map[spec.Kind]bool)
	for _, k := range ComponentKinds[component] {
		kinds[k] = true
	}
	var specs []Spec
	seed := campaignSeedBase(kind) + 700_000
	for _, f := range rec.Fields() {
		if !kinds[f.Kind] {
			continue
		}
		in := inject.Injection{
			Channel: inject.ChannelRequest, Kind: f.Kind,
			SourcePrefix: component, FieldPath: f.Path,
			Occurrence: 1,
		}
		switch f.FieldKind {
		case codec.FieldInt:
			in.Type = inject.BitFlip
			in.Bit = lowBit
		case codec.FieldString:
			in.Type = inject.BitFlip
			in.CharIndex = firstChar
		case codec.FieldBool:
			in.Type = inject.BitFlip
		}
		specs = append(specs, Spec{Workload: kind, Injection: &in, Seed: seed})
		seed++
	}
	return specs
}

func campaignSeedBase(kind workload.Kind) int64 {
	switch kind {
	case workload.Deploy:
		return 1_000_000
	case workload.ScaleUp:
		return 2_000_000
	case workload.Failover:
		return 3_000_000
	case workload.Policy:
		return 4_000_000
	default:
		return 9_000_000
	}
}
