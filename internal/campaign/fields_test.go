package campaign

import (
	"slices"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// TestCriticalFieldClassifiersDisagreeOnTwoFields pins where the analysis's
// critical categories (dependency, identity, networking: finding F2) and the
// §VI-B mitigations' spec.CriticalFieldPath part ways over every recorded
// field of the four workloads: the field guard and the checksums leave
// exactly these two fields unprotected that F2 counts as critical.
func TestCriticalFieldClassifiersDisagreeOnTwoFields(t *testing.T) {
	seen := make(map[inject.RecordedField]bool)
	var disagree []string
	r := NewRunner()
	for _, kind := range append(workload.Kinds(), workload.Policy) {
		for _, f := range r.Record(kind).Fields() {
			if seen[f] {
				continue
			}
			seen[f] = true
			cat := Categorize(f.Path)
			critical := cat == CategoryDependency || cat == CategoryIdentity || cat == CategoryNetworking
			if critical != spec.CriticalFieldPath(f.Path) {
				disagree = append(disagree, string(f.Kind)+" "+f.Path)
			}
		}
	}
	slices.Sort(disagree)
	want := []string{"Lease spec.holderIdentity", "Node status.address"}
	if !slices.Equal(disagree, want) {
		t.Fatalf("over %d recorded fields the classifiers disagree on %q, want %q", len(seen), disagree, want)
	}
}
