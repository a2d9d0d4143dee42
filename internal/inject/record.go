package inject

import (
	"sort"

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

// Recorder observes the apiserver→store channel and inventories every field
// of every resource kind that crosses it.
type Recorder struct {
	fields map[string]RecordedField // kind+"\x00"+path
	kinds  map[spec.Kind]int        // messages observed per kind
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		fields: make(map[string]RecordedField),
		kinds:  make(map[spec.Kind]int),
	}
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
	if len(m.Data) == 0 {
		return
	}
	obj := spec.New(m.Kind)
	if obj == nil {
		return
	}
	if err := codec.Unmarshal(m.Data, obj); err != nil {
		return
	}
	for _, f := range codec.Fields(obj) {
		key := string(m.Kind) + "\x00" + f.Path
		if _, ok := r.fields[key]; !ok {
			r.fields[key] = RecordedField{Kind: m.Kind, Path: f.Path, FieldKind: f.Kind}
		}
	}
}

// Fields returns the recorded fields in deterministic order.
func (r *Recorder) Fields() []RecordedField {
	out := make([]RecordedField, 0, len(r.fields))
	for _, f := range r.fields {
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

// Kinds returns the kinds observed on the channel, in deterministic order.
func (r *Recorder) Kinds() []spec.Kind {
	out := make([]spec.Kind, 0, len(r.kinds))
	for k := range r.kinds {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MessageCount returns how many messages of a kind were observed.
func (r *Recorder) MessageCount(kind spec.Kind) int { return r.kinds[kind] }
