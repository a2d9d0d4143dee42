package store

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// TestSnapshotCloneIsDeepAndEqual: a clone carries byte-equal content in
// freshly allocated arrays — nothing aliases the source (the per-worker
// isolation contract of the campaign engine's WorkerView path).
func TestSnapshotCloneIsDeepAndEqual(t *testing.T) {
	src := &Snapshot{Replicas: []StoreSnapshot{{
		Rev:  42,
		Size: 11,
		Items: []ItemSnapshot{
			{Key: "/registry/pods/a", Kind: "Pod", Value: []byte("alpha"), CreateRev: 1, ModRev: 2},
			{Key: "/registry/pods/b", Kind: "Pod", Value: []byte("bravo!"), CreateRev: 3, ModRev: 4},
			{Key: "/registry/svc/c", Kind: "Service", Value: nil, CreateRev: 5, ModRev: 5},
		},
	}}}

	got := src.Clone()
	if len(got.Replicas) != 1 {
		t.Fatalf("replica count = %d, want 1", len(got.Replicas))
	}
	rs, rg := src.Replicas[0], got.Replicas[0]
	if rg.Rev != rs.Rev || rg.Size != rs.Size || len(rg.Items) != len(rs.Items) {
		t.Fatalf("clone header mismatch: %+v vs %+v", rg, rs)
	}
	for i := range rs.Items {
		is, ig := rs.Items[i], rg.Items[i]
		if ig.Key != is.Key || ig.Kind != is.Kind || ig.CreateRev != is.CreateRev || ig.ModRev != is.ModRev {
			t.Fatalf("item %d metadata mismatch", i)
		}
		if !bytes.Equal(ig.Value, is.Value) {
			t.Fatalf("item %d value mismatch: %q vs %q", i, ig.Value, is.Value)
		}
		if len(is.Value) > 0 && &ig.Value[0] == &is.Value[0] {
			t.Fatalf("item %d value aliases the source array", i)
		}
	}
	// Appending through one cloned value must not bleed into the next item
	// (the arena reslice is capacity-capped).
	v := rg.Items[0].Value
	v = append(v, 'X')
	if bytes.Contains(rg.Items[1].Value, []byte("X")) {
		t.Fatal("append through item 0 overwrote item 1's bytes")
	}

	if (*Snapshot)(nil).Clone() != nil {
		t.Fatal("nil snapshot must clone to nil")
	}
}

// A Reset store restored from a snapshot equals a new store restored from it,
// reuses its item array, and lists without sorting only while nothing has
// touched it since: any write, delete or at-rest rewrite must show in the
// next List.
func TestResetAndRestoreInPlace(t *testing.T) {
	loop, s := newTestStore(t)
	for _, k := range []string{"/registry/Pod/default/b", "/registry/Pod/default/a", "/registry/Node//n1"} {
		if _, err := s.Put(k, spec.KindPod, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.snapshot()

	delivered := 0
	s.Watch("/registry/", func(Event) { delivered++ })
	_, _ = s.Put("/registry/Pod/default/zzz", spec.KindPod, []byte("dirty"))
	s.Delete("/registry/Node//n1")
	s.Reset()
	loop.Reset()
	if s.Len() != 0 || s.Revision() != 0 || s.SizeBytes() != 0 || len(s.watchers) != 0 {
		t.Fatalf("after Reset: %d keys, rev %d, %d bytes, %d watchers", s.Len(), s.Revision(), s.SizeBytes(), len(s.watchers))
	}

	s.restore(snap)
	array := &s.restored[0]
	fresh := New(loop, nil)
	fresh.restore(snap)
	if got, want := s.List("/registry/"), fresh.List("/registry/"); !reflect.DeepEqual(got, want) || len(got) != 3 {
		t.Fatalf("restored in place lists %v, a new store %v", got, want)
	}
	if s.Revision() != fresh.Revision() || s.SizeBytes() != fresh.SizeBytes() {
		t.Fatalf("rev/size %d/%d, a new store has %d/%d", s.Revision(), s.SizeBytes(), fresh.Revision(), fresh.SizeBytes())
	}

	_, _ = s.Put("/registry/Pod/default/0-first", spec.KindPod, []byte("new"))
	if l := s.List("/registry/Pod/"); len(l) != 3 || l[0].Key != "/registry/Pod/default/0-first" {
		t.Fatalf("List after a Put: %v", l)
	}
	loop.RunUntil(time.Second)
	if delivered != 0 {
		t.Fatalf("a watcher from before the Reset heard %d events: undelivered ones go with the loop's, later ones have no subscriber", delivered)
	}
	s.Reset()
	s.restore(snap)
	if &s.restored[0] != array {
		t.Error("the second restore did not reuse the item array")
	}
	s.Delete("/registry/Pod/default/a")
	if l := s.List("/registry/Pod/"); len(l) != 1 {
		t.Fatalf("List after a Delete: %v", l)
	}
	s.Reset()
	s.restore(snap)
	s.CorruptAtRest("/registry/Pod/default/b", func(b []byte) []byte { return []byte("rotten") })
	if l := s.List("/registry/Pod/default/b"); len(l) != 1 || string(l[0].Value) != "rotten" {
		t.Fatalf("List after CorruptAtRest: %v", l)
	}
}
