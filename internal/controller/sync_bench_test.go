package controller

import (
	"fmt"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// stormNamespace is what a runaway ReplicaSet leaves in its namespace once
// the store quota stops it: 2,000 released orphans sharing one interned label
// map and never scheduled, beside a ReplicaSet "web" that owns its 3 pods and
// a service "front" with 4 serving backends. One sync of either controller
// then writes nothing.
func stormNamespace(b *testing.B) *harness {
	h := newHarness(b)
	ns := spec.DefaultNamespace
	for i := 0; i < 2000; i++ {
		pod := &spec.Pod{
			Metadata: spec.ObjectMeta{Name: fmt.Sprintf("storm-%04d", i), Namespace: ns, Labels: map[string]string{"app": "storm"}},
			Spec: spec.PodSpec{Containers: []spec.Container{{
				Name: "c", Image: "registry.local/web:1", Command: []string{"serve"},
			}}},
		}
		if err := h.c.Create(pod); err != nil {
			b.Fatal(err)
		}
	}
	if err := h.c.Create(testRS("web", 3)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h.readyPod(b, ns, fmt.Sprintf("front-%d", i), fmt.Sprintf("10.244.0.%d", i+2), map[string]string{"app": "front"})
	}
	h.service(b, ns, "front", map[string]string{"app": "front"})
	h.run(2 * time.Second)
	if n := len(h.pods(ns)); n != 2007 {
		b.Fatalf("setup: %d pods, want 2,007", n)
	}
	if got := h.backends(b, ns, "front"); len(got) != 4 {
		b.Fatalf("setup: backends %v, want the 4 serving pods", got)
	}
	return h
}

// BenchmarkReplicaSetSyncStorm times one ReplicaSet sync in a namespace a
// runaway filled with orphans its selector does not pick.
func BenchmarkReplicaSetSyncStorm(b *testing.B) {
	h := stormNamespace(b)
	rev := h.st.Revision()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.m.replicaSets.sync(spec.DefaultNamespace + "/web")
	}
	if h.st.Revision() != rev {
		b.Fatal("a steady-state sync wrote")
	}
}

// BenchmarkEndpointsSyncStorm times one endpoints sync in the same
// namespace: 4 backends among 2,007 pods.
func BenchmarkEndpointsSyncStorm(b *testing.B) {
	h := stormNamespace(b)
	rev := h.st.Revision()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.m.endpoints.sync(spec.DefaultNamespace + "/front")
	}
	if h.st.Revision() != rev {
		b.Fatal("a steady-state sync wrote")
	}
}
