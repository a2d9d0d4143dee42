package controller

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// refTemplateHash is the formula templateHasher replaced: the template's
// encoding through the shared encoder, the standard library's FNV-1a and a
// formatted print.
func refTemplateHash(tpl spec.PodTemplate) string {
	b, err := codec.Marshal(&tpl)
	if err != nil {
		b = []byte(fmt.Sprint(tpl))
	}
	h := fnv.New32a()
	_, _ = h.Write(b)
	return fmt.Sprintf("%08x", h.Sum32())
}

// The hasher gives every template the hash the old formula gave it — an
// existing ReplicaSet's pod-template-hash label must keep matching — and
// allocates nothing but the string it returns.
func TestTemplateHashMatchesReference(t *testing.T) {
	web := spec.PodTemplate{
		Labels: map[string]string{spec.LabelApp: "web"},
		Spec: spec.PodSpec{
			Containers: []spec.Container{{
				Name: "web", Image: "registry.local/web:1", RequestsMilliCPU: 100,
				RequestsMemMB: 64, LimitsMilliCPU: 200, LimitsMemMB: 128, Port: 8080,
			}},
			RestartPolicy: "Always",
		},
	}
	wide := web
	wide.Labels = map[string]string{"a": "1", "b": "2", "c": "3", "d": "4", "e": "5", "tier": "backend"}
	wide.Spec.NodeSelector = map[string]string{"zone": "z1", "disk": "ssd"}
	wide.Spec.Priority = 2000000000
	wide.Spec.VolumeSeed = "seed-7"
	wide.Spec.Containers = append(wide.Spec.Containers, spec.Container{
		Name: "sidecar", Image: "registry.local/proxy:2", Command: []string{"proxy", "--port", "15001"},
	})
	tolerant := dsTemplate()
	tolerant.Spec.Tolerations = append(tolerant.Spec.Tolerations,
		spec.Toleration{TolerateAll: true}, spec.Toleration{Key: taintUnreachable, TolerationSecs: 300})
	corrupted := web
	corrupted.Labels = map[string]string{spec.LabelApp: "wéb\x7f"}
	corrupted.Spec.Containers = []spec.Container{{Name: "", RequestsMilliCPU: -1 << 62}}

	var h templateHasher
	for name, tpl := range map[string]spec.PodTemplate{
		"empty": {}, "web": web, "wide": wide, "daemon": dsTemplate(), "tolerant": tolerant, "corrupted": corrupted,
	} {
		for range 2 { // the second hash reuses the first one's buffers
			if got, want := h.hash(&tpl), refTemplateHash(tpl); got != want {
				t.Errorf("%s: hash %s, want %s", name, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = h.hash(&wide) }); n > 1 {
		t.Errorf("a hash allocates %v times, want at most 1 (its string)", n)
	}
}
