package spec_test

import (
	"reflect"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

func webPair() (*spec.Deployment, *spec.Service) {
	d := spec.NewAppDeployment(spec.DefaultNamespace, "web", 2, spec.PodSpec{
		Containers: []spec.Container{{
			Name: "web", Image: "registry.local/web:1.0", Command: []string{"serve"},
			RequestsMilliCPU: 100, RequestsMemMB: 64, LimitsMilliCPU: 200, LimitsMemMB: 128, Port: 8080,
		}},
	})
	svc := spec.NewAppService(spec.DefaultNamespace, "web-svc", "web",
		spec.ServicePort{Port: 80, TargetPort: 8080, Protocol: "TCP"})
	return d, svc
}

// The app constructors give each of an object's label maps its own instance:
// the admission defaulter writes into metadata labels in place, and a map
// shared with a selector or a template would carry that write into them. The
// selector selects the template, and the apiserver admits both objects.
func TestAppConstructorsShareNoLabelMap(t *testing.T) {
	d, svc := webPair()
	if !d.Spec.Selector.Matches(d.Spec.Template.Labels) {
		t.Fatalf("selector %v does not select template labels %v", d.Spec.Selector.MatchLabels, d.Spec.Template.Labels)
	}
	maps := []struct {
		name   string
		labels map[string]string
	}{
		{"deployment metadata", d.Metadata.Labels},
		{"service metadata", svc.Metadata.Labels},
		{"deployment selector", d.Spec.Selector.MatchLabels},
		{"pod template", d.Spec.Template.Labels},
		{"service selector", svc.Spec.Selector},
	}
	want := map[string]string{spec.LabelApp: "web"}
	for i, m := range maps {
		if !reflect.DeepEqual(m.labels, want) {
			t.Fatalf("%s labels %v, want %v", m.name, m.labels, want)
		}
		m.labels["written"] = "true"
		for j, other := range maps {
			if j != i && len(other.labels) != 1 {
				t.Errorf("a write to the %s labels reached the %s labels", m.name, other.name)
			}
		}
		delete(m.labels, "written")
	}

	defaulter := apiserver.StandardAdmissionHooks(1, nil)[0]
	defaulter.Mutate(d)
	defaulter.Mutate(svc)
	for _, m := range maps[2:] {
		if !reflect.DeepEqual(m.labels, want) {
			t.Errorf("admission defaulting left the %s labels %v, want %v", m.name, m.labels, want)
		}
	}

	loop := sim.NewLoop(1)
	c := apiserver.New(loop, store.NewReplicated(loop, 1, nil), nil).ClientFor("test")
	d, svc = webPair()
	for _, obj := range []spec.Object{d, svc} {
		if err := c.Create(obj); err != nil {
			t.Errorf("create %s %s: %v", obj.Kind(), obj.Meta().Name, err)
		}
	}
}
