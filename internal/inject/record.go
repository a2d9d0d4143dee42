package inject

import (
	"cmp"
	"slices"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// RecordedField is one injectable leaf observed on the wire during a nominal
// (golden) run: the campaign generator derives experiments from these
// ("first, we record the fields of the resource instances sent to Etcd
// during the execution of a nominal orchestration workload").
type RecordedField struct {
	Kind      spec.Kind
	Path      string
	FieldKind codec.FieldKind
}

// FieldSet is a set of recorded fields, one per (kind, path): the first one
// added under a kind and path is the one it keeps.
type FieldSet map[fieldKey]RecordedField

// fieldKey is a recorded field's identity in a FieldSet.
type fieldKey struct {
	kind spec.Kind
	path string
}

// Add puts f in the set unless a field of its kind and path is there.
func (s FieldSet) Add(f RecordedField) {
	key := fieldKey{f.Kind, f.Path}
	if _, ok := s[key]; !ok {
		s[key] = f
	}
}

// Sorted returns the set's fields in (kind, path) order.
func (s FieldSet) Sorted() []RecordedField {
	out := make([]RecordedField, 0, len(s))
	for _, f := range s {
		out = append(out, f)
	}
	slices.SortFunc(out, func(a, b RecordedField) int {
		return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Path, b.Path))
	})
	return out
}

// Recorder observes the apiserver→store channel and inventories every field
// of every resource kind that crosses it.
type Recorder struct {
	fields FieldSet
	kinds  map[spec.Kind]int // messages observed per kind
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{fields: FieldSet{}, kinds: make(map[spec.Kind]int)}
}

// Hook returns the apiserver hook that performs the recording.
func (r *Recorder) Hook() apiserver.Hook {
	return func(m *apiserver.Message) apiserver.Action {
		r.observe(m)
		return apiserver.Pass
	}
}

func (r *Recorder) observe(m *apiserver.Message) {
	r.kinds[m.Kind]++
	data := m.Encoded()
	if len(data) == 0 {
		return
	}
	obj := spec.New(m.Kind)
	if obj == nil {
		return
	}
	if err := codec.Unmarshal(data, obj); err != nil {
		return
	}
	for _, f := range codec.Fields(obj) {
		r.fields.Add(RecordedField{Kind: m.Kind, Path: f.Path, FieldKind: f.Kind})
	}
}

// Fields returns the recorded fields in (kind, path) order.
func (r *Recorder) Fields() []RecordedField { return r.fields.Sorted() }

// Kinds returns the kinds observed on the channel, in deterministic order.
func (r *Recorder) Kinds() []spec.Kind {
	out := make([]spec.Kind, 0, len(r.kinds))
	for k := range r.kinds {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// MessageCount returns how many messages of a kind were observed.
func (r *Recorder) MessageCount(kind spec.Kind) int { return r.kinds[kind] }
