package spec

import (
	"reflect"
	"testing"
)

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
	if !SameMap(c.Metadata.Labels, p.Metadata.Labels) {
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
	if !SameMap(c.Metadata.Labels, p.Metadata.Labels) {
		t.Fatal("re-seal replaced the label map the clone shares with its source")
	}
}

// The kind model, kind by kind: which kinds carry a status section, a pod
// selector and template, and no namespace, and the status clones built on it.
func TestKindModel(t *testing.T) {
	type model struct{ status, template, clusterScoped bool }
	want := map[Kind]model{
		KindPod:        {status: true},
		KindReplicaSet: {status: true, template: true},
		KindDeployment: {status: true, template: true},
		KindDaemonSet:  {status: true, template: true},
		KindService:    {},
		KindEndpoints:  {},
		KindNode:       {status: true, clusterScoped: true},
		KindNamespace:  {clusterScoped: true},
		KindConfigMap:  {},
		KindLease:      {},
	}
	objects := sampleObjects()
	if len(objects) != len(Kinds()) {
		t.Fatalf("%d sample objects for %d kinds", len(objects), len(Kinds()))
	}
	addr := func(v reflect.Value) uintptr { return v.Addr().Pointer() }
	for _, o := range objects {
		k := o.Kind()
		w := want[k]
		v := reflect.ValueOf(o).Elem()

		if k.ClusterScoped() != w.clusterScoped {
			t.Errorf("%s: ClusterScoped() = %v, want %v", k, k.ClusterScoped(), w.clusterScoped)
		}
		switch status := StatusOf(o); {
		case !w.status && status != nil:
			t.Errorf("%s: StatusOf = %T, want nil", k, status)
		case w.status && (status == nil || reflect.ValueOf(status).Pointer() != addr(v.FieldByName("Status"))):
			t.Errorf("%s: StatusOf does not point at the object's Status", k)
		}
		switch sel, tpl := TemplateOf(o); {
		case !w.template && (sel != nil || tpl != nil):
			t.Errorf("%s: TemplateOf = %p, %p, want nils", k, sel, tpl)
		case w.template && (sel == nil || tpl == nil ||
			reflect.ValueOf(sel).Pointer() != addr(v.FieldByName("Spec").FieldByName("Selector")) ||
			reflect.ValueOf(tpl).Pointer() != addr(v.FieldByName("Spec").FieldByName("Template"))):
			t.Errorf("%s: TemplateOf does not point at the object's selector and template", k)
		}

		// An unsealed object passes through CloneForStatus.
		if CloneForStatus(o) != o {
			t.Errorf("%s: CloneForStatus copied an unsealed object", k)
		}
		Seal(o)
		before := o.Clone()
		src := New(k) // carries the zero status
		got := WithStatus(o, src)
		if !w.status {
			if got != nil {
				t.Errorf("%s: WithStatus = %T, want nil", k, got)
			}
			// Without a status clone, CloneForStatus is a full clone.
			if c := CloneForStatus(o); c == o || c.Meta().Sealed() || !reflect.DeepEqual(c, o.Clone()) {
				t.Errorf("%s: CloneForStatus is not a full clone", k)
			}
			continue
		}
		// The status clone: a shallow copy of o, unsealed, carrying src's status.
		exp := reflect.New(v.Type())
		exp.Elem().Set(v)
		exp.Interface().(Object).Meta().sealed = false
		exp.Elem().FieldByName("Status").SetZero()
		if !reflect.DeepEqual(got, exp.Interface()) {
			t.Errorf("%s: WithStatus = %+v, want %+v", k, got, exp.Interface())
		}
		if m := o.Meta(); m.Labels != nil && !SameMap(got.Meta().Labels, m.Labels) {
			t.Errorf("%s: WithStatus deep-copied the label map it should share", k)
		}
		if !reflect.DeepEqual(o.Clone(), before) || !o.Meta().Sealed() {
			t.Errorf("%s: WithStatus changed its sealed source", k)
		}
		// CloneForStatus is WithStatus carrying the object's own status.
		exp.Elem().FieldByName("Status").Set(v.FieldByName("Status"))
		if c := CloneForStatus(o); c == o || !reflect.DeepEqual(c, exp.Interface()) {
			t.Errorf("%s: CloneForStatus = %+v, want %+v", k, c, exp.Interface())
		}
	}
}
