package campaign

import (
	"sort"

	"github.com/mutiny-sim/mutiny/internal/classify"
	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// InjGroup is the injection-type grouping used by Tables IV and V: field and
// serialization bit flips together, data-type sets, message drops, and one
// group per family of timed faults.
type InjGroup string

// Message-fault injection groups.
const (
	GroupBitFlip InjGroup = "Bit-flip"
	GroupSet     InjGroup = "Value set"
	GroupDrop    InjGroup = "Drop"
)

// InjGroups lists the groups in table order.
func InjGroups() []InjGroup {
	groups := []InjGroup{GroupBitFlip, GroupSet, GroupDrop}
	for _, f := range inject.TimedFamilies() {
		groups = append(groups, InjGroup(f.String()))
	}
	return groups
}

// GroupOf buckets a fault type.
func GroupOf(t inject.FaultType) InjGroup {
	if f := t.Family(); f != 0 {
		return InjGroup(f.String())
	}
	switch t {
	case inject.SetValue:
		return GroupSet
	case inject.DropMessage:
		return GroupDrop
	default: // BitFlip and FlipProtoByte are both single-bit corruptions
		return GroupBitFlip
	}
}

// WindowKey addresses one row of a timed-fault table: a fault axis, split by
// the family's sub-key — the failure policy for admission faults, the zone
// for topology faults (from Injection.Value, stamped by GenerateTopology, so
// a merge of decoded results reconstructs the rows without a cluster handle),
// nothing for control-plane faults.
type WindowKey struct {
	Fault inject.FaultType
	Sub   string
}

// windows returns the table row a timed-fault result belongs to and the two
// windows its family measures, in simulated milliseconds (the admission
// family's second is a count): failover and stale reads, write outage and
// violations admitted, link disruption and recovery tail.
func (res *Result) windows() (WindowKey, [2]float64) {
	in := res.Spec.Injection
	key := WindowKey{Fault: in.Type}
	switch in.Type.Family() {
	case inject.FamilyAdmission:
		key.Sub = in.Policy
		return key, [2]float64{res.AdmissionOutageMillis, float64(res.PolicyViolations)}
	case inject.FamilyTopology:
		key.Sub, _ = in.Value.(string)
		return key, [2]float64{res.TopologyDisruptionMillis, res.TopologyRecoveryMillis}
	default:
		return key, [2]float64{res.FailoverMillis, res.StaleReadMillis}
	}
}

// Aggregate accumulates experiment results into the paper's tables.
type Aggregate struct {
	Results []*Result

	// Perf / OF counts by workload and injection group (Table IV).
	OFCounts map[workload.Kind]map[InjGroup]map[classify.OF]int
	// CF counts by workload and injection group (Table V).
	CFCounts map[workload.Kind]map[InjGroup]map[classify.CF]int
	// OF → CF propagation by workload (Table III).
	OFToCF map[workload.Kind]map[classify.OF]map[classify.CF]int
	// Client z-scores grouped by OF and workload (Figure 6).
	ZByOF map[workload.Kind]map[classify.OF][]float64
	// User-error counts by OF and workload (Figure 7).
	UserErrByOF map[workload.Kind]map[classify.OF]int
	// Activation statistics (F1 discussion).
	Fired, Activated int
	// Windows collects, per timed-fault table row, the two windows of every
	// experiment in run order (see Result.windows).
	Windows map[WindowKey][2][]float64
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{
		OFCounts:    make(map[workload.Kind]map[InjGroup]map[classify.OF]int),
		CFCounts:    make(map[workload.Kind]map[InjGroup]map[classify.CF]int),
		OFToCF:      make(map[workload.Kind]map[classify.OF]map[classify.CF]int),
		ZByOF:       make(map[workload.Kind]map[classify.OF][]float64),
		UserErrByOF: make(map[workload.Kind]map[classify.OF]int),
		Windows:     make(map[WindowKey][2][]float64),
	}
}

// Add folds one result in.
func (a *Aggregate) Add(res *Result) {
	a.Results = append(a.Results, res)
	wl := res.Spec.Workload
	group := GroupBitFlip
	if res.Spec.Injection != nil {
		group = GroupOf(res.Spec.Injection.Type)
	}
	if a.OFCounts[wl] == nil {
		a.OFCounts[wl] = make(map[InjGroup]map[classify.OF]int)
		a.CFCounts[wl] = make(map[InjGroup]map[classify.CF]int)
		a.OFToCF[wl] = make(map[classify.OF]map[classify.CF]int)
		a.ZByOF[wl] = make(map[classify.OF][]float64)
		a.UserErrByOF[wl] = make(map[classify.OF]int)
	}
	if a.OFCounts[wl][group] == nil {
		a.OFCounts[wl][group] = make(map[classify.OF]int)
		a.CFCounts[wl][group] = make(map[classify.CF]int)
	}
	a.OFCounts[wl][group][res.OF]++
	a.CFCounts[wl][group][res.CF]++
	if a.OFToCF[wl][res.OF] == nil {
		a.OFToCF[wl][res.OF] = make(map[classify.CF]int)
	}
	a.OFToCF[wl][res.OF][res.CF]++
	a.ZByOF[wl][res.OF] = append(a.ZByOF[wl][res.OF], res.Z)
	if res.UserErrors > 0 {
		a.UserErrByOF[wl][res.OF]++
	}
	if res.Report.Fired {
		a.Fired++
		if res.Report.Activated {
			a.Activated++
		}
	}
	if res.Spec.Injection != nil && res.Spec.Injection.Type.Family() != 0 {
		key, w := res.windows()
		series := a.Windows[key]
		for i := range series {
			series[i] = append(series[i], w[i])
		}
		a.Windows[key] = series
	}
}

// Total returns the number of aggregated experiments.
func (a *Aggregate) Total() int { return len(a.Results) }

// TotalOF counts results in an OF category across workloads and groups.
func (a *Aggregate) TotalOF(of classify.OF) int {
	n := 0
	for _, res := range a.Results {
		if res.OF == of {
			n++
		}
	}
	return n
}

// ActivationRate returns the fraction of fired injections whose instance
// was later requested (the paper reports 82%).
func (a *Aggregate) ActivationRate() float64 {
	if a.Fired == 0 {
		return 0
	}
	return float64(a.Activated) / float64(a.Fired)
}

// Critical reports whether the experiment ended in a critical failure: Sta,
// Out, or a client SU — the failures finding F2 attributes to fields.
func (res *Result) Critical() bool {
	return res.OF == classify.OFSta || res.OF == classify.OFOut || res.CF == classify.CFSU
}

// CriticalFieldShare computes the F2 statistic: among experiments that
// ended in a critical failure (Sta, Out, or client SU), the share whose
// injected field belongs to each category.
func (a *Aggregate) CriticalFieldShare() (byCategory map[FieldCategory]int, total int) {
	byCategory = make(map[FieldCategory]int)
	for _, res := range a.Results {
		if res.Spec.Injection == nil || res.Spec.Injection.FieldPath == "" || !res.Critical() {
			continue
		}
		byCategory[Categorize(res.Spec.Injection.FieldPath)]++
		total++
	}
	return byCategory, total
}

// CriticalFields returns the distinct fields whose injections caused
// critical failures (input to the §V-C2 refinement round).
func (a *Aggregate) CriticalFields() []inject.RecordedField {
	seen := make(map[string]inject.RecordedField)
	for _, res := range a.Results {
		in := res.Spec.Injection
		if in == nil || in.FieldPath == "" || !res.Critical() {
			continue
		}
		key := string(in.Kind) + "\x00" + in.FieldPath
		if _, ok := seen[key]; !ok {
			seen[key] = inject.RecordedField{Kind: in.Kind, Path: in.FieldPath, FieldKind: fieldKindOf(res)}
		}
	}
	out := make([]inject.RecordedField, 0, len(seen))
	for _, f := range seen {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// fieldKindOf infers the field's type from the observed old value of the
// fired injection (set-value faults know their type; bit flips report what
// they read).
func fieldKindOf(res *Result) codec.FieldKind {
	val := res.Report.OldValue
	if val == nil {
		val = res.Spec.Injection.Value
	}
	switch val.(type) {
	case int64, int:
		return codec.FieldInt
	case bool:
		return codec.FieldBool
	default:
		return codec.FieldString
	}
}
