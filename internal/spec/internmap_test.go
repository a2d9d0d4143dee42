package spec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// SameMap is identity as reflect sees it: one instance, or both nil; equal
// contents are not enough, and interning is what makes them one.
func TestSameMapIsIdentity(t *testing.T) {
	a := map[string]string{"app": "same-map-test"}
	b := map[string]string{"app": "same-map-test"}
	var none map[string]string
	for i, c := range []struct {
		x, y map[string]string
		want bool
	}{
		{a, a, true},
		{a, b, false},
		{none, nil, true},
		{none, map[string]string{}, false},
		{InternStringMap(a), InternStringMap(b), true},
	} {
		if got := SameMap(c.x, c.y); got != c.want || got != (reflect.ValueOf(c.x).Pointer() == reflect.ValueOf(c.y).Pointer()) {
			t.Errorf("case %d: SameMap = %v, want %v", i, got, c.want)
		}
	}
}

func TestInternStringMapCanonicalizes(t *testing.T) {
	a := map[string]string{"app": "web", "tier": "frontend"}
	b := map[string]string{"tier": "frontend", "app": "web"}
	ia := InternStringMap(a)
	ib := InternStringMap(b)
	if !SameMap(ia, ib) {
		t.Fatal("equal maps interned to different instances")
	}
	if len(ia) != 2 || ia["app"] != "web" || ia["tier"] != "frontend" {
		t.Fatalf("interned map lost content: %v", ia)
	}
	// The canonical instance is identity-stable: re-interning it is a hit.
	if !SameMap(InternStringMap(ia), ia) {
		t.Fatal("re-interning the canonical map returned a different instance")
	}
	// So is an equal private map, and the hit allocates nothing: the entries
	// are serialized on the stack and looked up without a string conversion.
	if allocs := testing.AllocsPerRun(100, func() { _ = InternStringMap(b) }); allocs != 0 {
		t.Fatalf("interned map hit allocates %.1f per call, want 0", allocs)
	}
}

func TestInternStringMapPassthroughs(t *testing.T) {
	if got := InternStringMap(nil); got != nil {
		t.Fatal("nil map not passed through")
	}
	empty := map[string]string{}
	if got := InternStringMap(empty); !SameMap(got, empty) {
		t.Fatal("empty map not passed through unchanged")
	}
	big := map[string]string{"a": "1", "b": "2", "c": "3", "d": "4", "e": "5"}
	if got := InternStringMap(big); !SameMap(got, big) {
		t.Fatal("over-limit map should pass through uninterned")
	}
	long := map[string]string{"k": strings.Repeat("v", maxInternMapKVLen+1)}
	if got := InternStringMap(long); !SameMap(got, long) {
		t.Fatal("long-value map should pass through uninterned")
	}
}

// Distinct contents must never collapse onto one instance, even when they
// hash to the same shard.
func TestInternStringMapDistinguishesContent(t *testing.T) {
	for i := 0; i < 200; i++ {
		m := InternStringMap(map[string]string{"app": fmt.Sprintf("web-%d", i)})
		if m["app"] != fmt.Sprintf("web-%d", i) {
			t.Fatalf("interning conflated distinct maps at %d: %v", i, m)
		}
	}
}

// Sealing interns an object's maps, and sealing two objects with equal
// labels makes them share one canonical instance.
func TestSealInternsObjectMaps(t *testing.T) {
	mk := func() *Pod {
		return &Pod{
			Metadata: ObjectMeta{
				Name: "p", Namespace: DefaultNamespace,
				Labels: map[string]string{"app": "intern-seal-test"},
			},
			Spec: PodSpec{NodeSelector: map[string]string{"zone": "intern-seal-a"}},
		}
	}
	p1, p2 := mk(), mk()
	Seal(p1)
	Seal(p2)
	if !SameMap(p1.Metadata.Labels, p2.Metadata.Labels) {
		t.Fatal("sealed equal label maps are not shared")
	}
	if !SameMap(p1.Spec.NodeSelector, p2.Spec.NodeSelector) {
		t.Fatal("sealed equal node selectors are not shared")
	}
	// Clones deep-copy back out of the canonical instance: mutating a clone
	// must not touch the shared map.
	c := CloneForWriteAs(p1)
	c.Metadata.Labels["app"] = "mutated"
	if p2.Metadata.Labels["app"] != "intern-seal-test" {
		t.Fatal("mutating a clone's labels reached the shared canonical map")
	}
}
