// Benchmarks and regression tests for the codec hot path. They live in an
// external test package so they can exercise the real resource kinds from
// internal/spec (which itself imports codec): Marshal/Unmarshal run on every
// store transaction of every campaign experiment, so allocs/op here multiply
// by the ~7,500-experiment campaign.
package codec_test

import (
	"bytes"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// representativeObjects builds one populated instance of every wire-visible
// resource kind, with the nested messages, maps, and repeated fields the
// campaign actually serializes.
func representativeObjects() []spec.Object {
	labels := map[string]string{spec.LabelApp: "web", spec.LabelPodHash: "5d8f9c"}
	template := spec.PodTemplate{
		Labels: labels,
		Spec: spec.PodSpec{
			Containers: []spec.Container{{
				Name: "app", Image: "registry.local/web:1.4", Command: []string{"/bin/web", "--port=8080"},
				RequestsMilliCPU: 250, RequestsMemMB: 128, LimitsMilliCPU: 500, LimitsMemMB: 256, Port: 8080,
			}},
			RestartPolicy: "Always",
		},
	}
	return []spec.Object{
		&spec.Pod{
			Metadata: spec.ObjectMeta{
				Name: "web-5d8f9c-0", Namespace: spec.DefaultNamespace, UID: spec.FormatUID(41),
				ResourceVersion: 107, Labels: labels,
				OwnerReferences: []spec.OwnerReference{{Kind: "ReplicaSet", Name: "web-5d8f9c", UID: spec.FormatUID(40), Controller: true}},
				CreatedMillis:   1713312000123, Generation: 2,
			},
			Spec: spec.PodSpec{
				NodeName: "node-2", Containers: template.Spec.Containers,
				Tolerations: []spec.Toleration{{Key: "node-role", Value: "edge", Effect: spec.TaintNoSchedule}},
			},
			Status: spec.PodStatus{Phase: spec.PodRunning, PodIP: "10.244.2.17", Ready: true, StartedMillis: 1713312001456},
		},
		&spec.ReplicaSet{
			Metadata: spec.ObjectMeta{Name: "web-5d8f9c", Namespace: spec.DefaultNamespace, UID: spec.FormatUID(40), ResourceVersion: 106, Labels: labels, ManagedBy: "deployment-controller"},
			Spec:     spec.ReplicaSetSpec{Replicas: 3, Selector: spec.LabelSelector{MatchLabels: labels}, Template: template},
			Status:   spec.ReplicaSetStatus{Replicas: 3, ReadyReplicas: 3},
		},
		&spec.Deployment{
			Metadata: spec.ObjectMeta{Name: "web", Namespace: spec.DefaultNamespace, UID: spec.FormatUID(39), ResourceVersion: 105, Labels: labels},
			Spec:     spec.DeploymentSpec{Replicas: 3, Selector: spec.LabelSelector{MatchLabels: labels}, Template: template, MaxUnavailable: 1, MaxSurge: 1},
			Status:   spec.DeploymentStatus{Replicas: 3, ReadyReplicas: 3, UpdatedReplicas: 3},
		},
		&spec.DaemonSet{
			Metadata: spec.ObjectMeta{Name: "net-manager", Namespace: spec.SystemNamespace, UID: spec.FormatUID(7), ResourceVersion: 31},
			Spec:     spec.DaemonSetSpec{Selector: spec.LabelSelector{MatchLabels: map[string]string{spec.LabelApp: "net-manager"}}, Template: template},
			Status:   spec.DaemonSetStatus{DesiredNumber: 4, CurrentNumber: 4, NumberReady: 4},
		},
		&spec.Service{
			Metadata: spec.ObjectMeta{Name: "web", Namespace: spec.DefaultNamespace, UID: spec.FormatUID(42), ResourceVersion: 108},
			Spec: spec.ServiceSpec{
				Selector: labels, ClusterIP: "10.96.0.12",
				Ports: []spec.ServicePort{{Port: 80, TargetPort: 8080, Protocol: "TCP"}},
			},
		},
		&spec.Endpoints{
			Metadata: spec.ObjectMeta{Name: "web", Namespace: spec.DefaultNamespace, UID: spec.FormatUID(43), ResourceVersion: 109},
			Subsets: []spec.EndpointSubset{{
				Addresses: []spec.EndpointAddress{
					{IP: "10.244.2.17", NodeName: "node-2", TargetRef: spec.TargetRef{Kind: "Pod", Name: "web-5d8f9c-0", UID: spec.FormatUID(41)}},
					{IP: "10.244.3.4", NodeName: "node-3", TargetRef: spec.TargetRef{Kind: "Pod", Name: "web-5d8f9c-1", UID: spec.FormatUID(44)}},
				},
				Ports: []int64{8080},
			}},
		},
		&spec.Node{
			Metadata: spec.ObjectMeta{Name: "node-2", Labels: map[string]string{spec.LabelNodeRole: "worker"}, UID: spec.FormatUID(3), ResourceVersion: 12},
			Spec:     spec.NodeSpec{PodCIDR: "10.244.2.0/24", Taints: []spec.Taint{{Key: "edge", Value: "true", Effect: spec.TaintNoSchedule}}},
			Status: spec.NodeStatus{
				CapacityMilliCPU: 4000, CapacityMemMB: 8192, AllocatableMilliCPU: 3800, AllocatableMemMB: 7900,
				Ready: true, LastHeartbeatMillis: 1713312010000, Address: "192.168.1.12",
			},
		},
		&spec.Namespace{
			Metadata: spec.ObjectMeta{Name: spec.DefaultNamespace, UID: spec.FormatUID(1), ResourceVersion: 2},
			Phase:    "Active",
		},
		&spec.ConfigMap{
			Metadata: spec.ObjectMeta{Name: "net-conf", Namespace: spec.SystemNamespace, UID: spec.FormatUID(8), ResourceVersion: 33},
			Data:     map[string]string{"overlay": "vxlan", "cidr": "10.244.0.0/16"},
		},
		&spec.Lease{
			Metadata: spec.ObjectMeta{Name: "scheduler", Namespace: spec.SystemNamespace, UID: spec.FormatUID(9), ResourceVersion: 57},
			Spec:     spec.LeaseSpec{HolderIdentity: "scheduler-0", DurationSecs: 15, RenewMillis: 1713312009000},
		},
	}
}

// TestAppendMarshalRoundTripsEveryKind is the reused-buffer regression test:
// encoding every kind through one reused buffer must produce exactly the
// bytes Marshal produces, and those bytes must decode back to an object that
// re-encodes identically.
func TestAppendMarshalRoundTripsEveryKind(t *testing.T) {
	var buf []byte
	for _, obj := range representativeObjects() {
		want, err := codec.Marshal(obj)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", obj.Kind(), err)
		}
		got, err := codec.AppendMarshal(buf[:0], obj)
		if err != nil {
			t.Fatalf("%s: AppendMarshal: %v", obj.Kind(), err)
		}
		buf = got
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: AppendMarshal bytes differ from Marshal (%d vs %d bytes)", obj.Kind(), len(got), len(want))
		}
		back := spec.New(obj.Kind())
		if err := codec.Unmarshal(got, back); err != nil {
			t.Fatalf("%s: Unmarshal: %v", obj.Kind(), err)
		}
		again, err := codec.Marshal(back)
		if err != nil {
			t.Fatalf("%s: re-Marshal: %v", obj.Kind(), err)
		}
		if !bytes.Equal(again, want) {
			t.Fatalf("%s: reused-buffer round trip not stable", obj.Kind())
		}
	}
}

// TestAppendMarshalPrefixPreserved checks the append contract: existing bytes
// in the destination buffer are left intact.
func TestAppendMarshalPrefixPreserved(t *testing.T) {
	obj := representativeObjects()[0]
	prefix := []byte{0xde, 0xad, 0xbe, 0xef}
	out, err := codec.AppendMarshal(append([]byte(nil), prefix...), obj)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("AppendMarshal clobbered the destination prefix")
	}
	want, _ := codec.Marshal(obj)
	if !bytes.Equal(out[len(prefix):], want) {
		t.Fatal("AppendMarshal payload differs from Marshal")
	}
}

// BenchmarkCodecMarshal measures encoding across representative kinds; the
// campaign calls this on every request and every store write.
func BenchmarkCodecMarshal(b *testing.B) {
	objs := representativeObjects()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, obj := range objs {
			if _, err := codec.Marshal(obj); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCodecAppendMarshal measures the reused-buffer encode path used by
// the apiserver: one buffer reused across all kinds.
func BenchmarkCodecAppendMarshal(b *testing.B) {
	objs := representativeObjects()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, obj := range objs {
			out, err := codec.AppendMarshal(buf[:0], obj)
			if err != nil {
				b.Fatal(err)
			}
			buf = out
		}
	}
}

// BenchmarkCodecUnmarshal measures decoding, the other half of every store
// transaction and watch-cache refresh.
func BenchmarkCodecUnmarshal(b *testing.B) {
	objs := representativeObjects()
	wires := make([][]byte, len(objs))
	for i, obj := range objs {
		w, err := codec.Marshal(obj)
		if err != nil {
			b.Fatal(err)
		}
		wires[i] = w
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, w := range wires {
			back := spec.New(objs[j].Kind())
			if err := codec.Unmarshal(w, back); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCodecDeepCopy measures cloning, the hottest operation in the watch
// cache (every read and every dispatched event clones).
func BenchmarkCodecDeepCopy(b *testing.B) {
	objs := representativeObjects()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, obj := range objs {
			_ = obj.Clone()
		}
	}
}
