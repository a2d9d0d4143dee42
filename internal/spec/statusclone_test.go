package spec

import "testing"

func sealedPod() *Pod {
	p := &Pod{
		Metadata: ObjectMeta{
			Name: "web-1", Namespace: DefaultNamespace,
			ResourceVersion: 4,
			Labels:          map[string]string{"app": "web"},
		},
		Spec:   PodSpec{NodeName: "node-1"},
		Status: PodStatus{Phase: PodPending},
	}
	Seal(p)
	return p
}

func TestCloneForStatusSharesMetadataAndSpec(t *testing.T) {
	p := sealedPod()
	c := CloneForStatusAs(p)
	if c == p {
		t.Fatal("status clone of a sealed object is the same instance")
	}
	if c.Meta().Sealed() {
		t.Fatal("status clone is sealed")
	}
	if !sameMap(c.Metadata.Labels, p.Metadata.Labels) {
		t.Fatal("status clone deep-copied the label map it should share")
	}
	// Mutating status must not touch the sealed source.
	c.Status.Phase = PodRunning
	c.Status.Ready = true
	if p.Status.Phase != PodPending || p.Status.Ready {
		t.Fatal("status mutation on the clone reached the sealed source")
	}
	// The nsName cache survives — a status write cannot rename.
	if c.Meta().NamespacedName() != p.Meta().NamespacedName() {
		t.Fatal("status clone lost the namespaced-name cache")
	}
}

func TestCloneForStatusPassesThroughUnsealed(t *testing.T) {
	p := &Pod{Metadata: ObjectMeta{Name: "w", Namespace: DefaultNamespace}}
	if CloneForStatusAs(p) != p {
		t.Fatal("unsealed object should pass through CloneForStatus unchanged")
	}
}

// Kinds without a shallow fast path fall back to a full clone, which is
// always safe to mutate.
func TestCloneForStatusFallsBackToDeepClone(t *testing.T) {
	svc := &Service{
		Metadata: ObjectMeta{Name: "web", Namespace: DefaultNamespace},
		Spec:     ServiceSpec{Selector: map[string]string{"app": "web"}},
	}
	Seal(svc)
	c := CloneForStatus(svc).(*Service)
	if c == svc {
		t.Fatal("sealed fallback kind not cloned")
	}
	c.Spec.Selector["app"] = "mutated"
	if svc.Spec.Selector["app"] != "web" {
		t.Fatal("fallback clone shares mutable state with the sealed source")
	}
}

// Re-sealing a status clone — once per status write, the hottest write class
// — must keep the sealed source's canonical maps and cached name without
// allocating or re-serializing them.
func TestStatusCloneResealDoesNotAllocate(t *testing.T) {
	p := sealedPod()
	c := CloneForStatusAs(p)
	allocs := testing.AllocsPerRun(100, func() {
		c.Metadata.sealed = false
		Seal(c)
	})
	if allocs != 0 {
		t.Fatalf("re-sealing a status clone allocates %.1f per call, want 0", allocs)
	}
	if !sameMap(c.Metadata.Labels, p.Metadata.Labels) {
		t.Fatal("re-seal replaced the label map the clone shares with its source")
	}
}
