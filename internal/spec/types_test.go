package spec

import (
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/mutiny-sim/mutiny/internal/codec"
)

// ObjectMeta is embedded in every object, so its size sets the allocation
// size class of every Pod, Node and ReplicaSet: the wire fields plus the seal
// bit and the cached namespaced name, 152 bytes on a 64-bit platform. The
// stored encoding a status update splices onto lives in the apiserver's
// decode-cache entry, not here.
func TestObjectMetaSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(ObjectMeta{}); got != 152 {
		t.Fatalf("unsafe.Sizeof(ObjectMeta{}) = %d, want 152", got)
	}
}

func TestNewCoversAllKinds(t *testing.T) {
	for _, k := range Kinds() {
		o := New(k)
		if o == nil {
			t.Fatalf("New(%s) = nil", k)
		}
		if o.Kind() != k {
			t.Fatalf("New(%s).Kind() = %s", k, o.Kind())
		}
		if o.Meta() == nil {
			t.Fatalf("New(%s).Meta() = nil", k)
		}
	}
	if New(Kind("Bogus")) != nil {
		t.Fatal("New(Bogus) != nil")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := &Pod{
		Metadata: ObjectMeta{
			Name: "web-1", Namespace: "default", UID: "uid-1",
			Labels:          map[string]string{"app": "web"},
			OwnerReferences: []OwnerReference{{Kind: "ReplicaSet", Name: "web-rs", UID: "uid-0", Controller: true}},
		},
		Spec: PodSpec{
			NodeName:   "node-1",
			Containers: []Container{{Name: "c", Image: "web:1", RequestsMilliCPU: 100}},
		},
	}
	c := p.Clone().(*Pod)
	c.Metadata.Labels["app"] = "db"
	c.Spec.Containers[0].Image = "db:1"
	c.Metadata.OwnerReferences[0].UID = "changed"
	if p.Metadata.Labels["app"] != "web" || p.Spec.Containers[0].Image != "web:1" ||
		p.Metadata.OwnerReferences[0].UID != "uid-0" {
		t.Fatal("Clone shares state with original")
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	objects := []Object{
		&Pod{Metadata: ObjectMeta{Name: "p"}, Spec: PodSpec{NodeName: "n", Priority: 5}},
		&ReplicaSet{Metadata: ObjectMeta{Name: "rs"}, Spec: ReplicaSetSpec{Replicas: 3,
			Selector: LabelSelector{MatchLabels: map[string]string{"a": "b"}}}},
		&Deployment{Metadata: ObjectMeta{Name: "d"}, Spec: DeploymentSpec{Replicas: 2, MaxSurge: 1}},
		&DaemonSet{Metadata: ObjectMeta{Name: "ds"}},
		&Service{Metadata: ObjectMeta{Name: "s"}, Spec: ServiceSpec{ClusterIP: "10.96.0.1",
			Ports: []ServicePort{{Port: 80, TargetPort: 8080, Protocol: "TCP"}}}},
		&Endpoints{Metadata: ObjectMeta{Name: "e"}, Subsets: []EndpointSubset{{
			Addresses: []EndpointAddress{{IP: "10.244.1.2", TargetRef: TargetRef{Kind: "Pod", Name: "p"}}},
			Ports:     []int64{8080}}}},
		&Node{Metadata: ObjectMeta{Name: "n"}, Status: NodeStatus{Ready: true, CapacityMilliCPU: 8000}},
		&Namespace{Metadata: ObjectMeta{Name: "ns"}, Phase: "Active"},
		&ConfigMap{Metadata: ObjectMeta{Name: "cm"}, Data: map[string]string{"net": "overlay"}},
		&Lease{Metadata: ObjectMeta{Name: "l"}, Spec: LeaseSpec{HolderIdentity: "kcm-1", DurationSecs: 15}},
	}
	for _, o := range objects {
		b, err := codec.Marshal(o)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", o.Kind(), err)
		}
		back := New(o.Kind())
		if err := codec.Unmarshal(b, back); err != nil {
			t.Fatalf("%s: Unmarshal: %v", o.Kind(), err)
		}
		b2, err := codec.Marshal(back)
		if err != nil {
			t.Fatalf("%s: re-Marshal: %v", o.Kind(), err)
		}
		if string(b) != string(b2) {
			t.Fatalf("%s: round trip not stable", o.Kind())
		}
	}
}

func TestSelectorMatches(t *testing.T) {
	tests := []struct {
		name   string
		sel    map[string]string
		labels map[string]string
		want   bool
	}{
		{"exact", map[string]string{"app": "web"}, map[string]string{"app": "web"}, true},
		{"subset", map[string]string{"app": "web"}, map[string]string{"app": "web", "x": "y"}, true},
		{"mismatch", map[string]string{"app": "web"}, map[string]string{"app": "db"}, false},
		{"missing", map[string]string{"app": "web"}, map[string]string{}, false},
		{"empty selector matches nothing", nil, map[string]string{"app": "web"}, false},
		{"two terms", map[string]string{"app": "web", "tier": "fe"}, map[string]string{"app": "web", "tier": "fe"}, true},
		{"partial", map[string]string{"app": "web", "tier": "fe"}, map[string]string{"app": "web"}, false},
		{"empty selector, no labels", map[string]string{}, nil, false},
		{"empty value equals absent key", map[string]string{"app": ""}, map[string]string{"x": "y"}, true},
		{"empty value, nil labels", map[string]string{"app": ""}, nil, true},
		{"empty value against a set one", map[string]string{"app": ""}, map[string]string{"app": "web"}, false},
		{"superset labels, two terms", map[string]string{"app": "web", "tier": "fe"}, map[string]string{"app": "web", "tier": "fe", "zone": "a"}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := LabelSelector{MatchLabels: tt.sel}
			if got := s.Matches(tt.labels); got != tt.want {
				t.Fatalf("Matches(%v) = %v, want %v", tt.labels, got, tt.want)
			}
			// The flat form is the same predicate, appended after whatever
			// the caller's buffer held.
			pairs := s.AppendPairs([]LabelPair{{"kept", "x"}})
			if len(pairs) != 1+len(tt.sel) || pairs[0] != (LabelPair{"kept", "x"}) {
				t.Fatalf("AppendPairs = %v for selector %v", pairs, tt.sel)
			}
			if got := PairsMatch(pairs[1:], tt.labels); got != tt.want {
				t.Fatalf("PairsMatch(%v, %v) = %v, Matches = %v", pairs[1:], tt.labels, got, tt.want)
			}
		})
	}
}

func TestTolerates(t *testing.T) {
	taint := Taint{Key: "node.kubernetes.io/unreachable", Effect: TaintNoExecute}
	tests := []struct {
		name string
		tols []Toleration
		want bool
	}{
		{"none", nil, false},
		{"exact key+effect", []Toleration{{Key: taint.Key, Effect: TaintNoExecute}}, true},
		{"key any effect", []Toleration{{Key: taint.Key}}, true},
		{"wrong key", []Toleration{{Key: "other", Effect: TaintNoExecute}}, false},
		{"wrong effect", []Toleration{{Key: taint.Key, Effect: TaintNoSchedule}}, false},
		{"tolerate all", []Toleration{{TolerateAll: true}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := Pod{Spec: PodSpec{Tolerations: tt.tols}}
			if got := p.Tolerates(taint); got != tt.want {
				t.Fatalf("Tolerates = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPodResourceSums(t *testing.T) {
	p := Pod{Spec: PodSpec{Containers: []Container{
		{RequestsMilliCPU: 100, RequestsMemMB: 64},
		{RequestsMilliCPU: 250, RequestsMemMB: 128},
	}}}
	if got := p.RequestsMilliCPU(); got != 350 {
		t.Fatalf("RequestsMilliCPU = %d, want 350", got)
	}
	if got := p.RequestsMemMB(); got != 192 {
		t.Fatalf("RequestsMemMB = %d, want 192", got)
	}
}

func TestControllerOf(t *testing.T) {
	m := ObjectMeta{OwnerReferences: []OwnerReference{
		{Kind: "Foo", Name: "a", UID: "1"},
		{Kind: "ReplicaSet", Name: "b", UID: "2", Controller: true},
	}}
	ref := m.ControllerOf()
	if ref == nil || ref.UID != "2" {
		t.Fatalf("ControllerOf = %+v, want UID 2", ref)
	}
	var none ObjectMeta
	if none.ControllerOf() != nil {
		t.Fatal("ControllerOf on empty meta != nil")
	}
}

func TestKeys(t *testing.T) {
	if got := Key(KindPod, "default", "web-1"); got != "/registry/Pod/default/web-1" {
		t.Fatalf("Key = %q", got)
	}
	if got := Key(KindNode, "", "node-1"); got != "/registry/Node//node-1" {
		t.Fatalf("Key = %q", got)
	}
}

func TestActivePhases(t *testing.T) {
	for phase, want := range map[string]bool{
		PodPending: true, PodRunning: true, PodSucceeded: false, PodFailed: false, "": true,
	} {
		p := Pod{Status: PodStatus{Phase: phase}}
		if p.Active() != want {
			t.Fatalf("Active(%q) = %v, want %v", phase, p.Active(), want)
		}
	}
}

// Property: selector matching is monotone — adding labels to an object never
// makes a previously matching selector stop matching.
func TestPropertySelectorMonotone(t *testing.T) {
	prop := func(k1, v1, k2, v2 string) bool {
		sel := LabelSelector{MatchLabels: map[string]string{k1: v1}}
		base := map[string]string{k1: v1}
		if !sel.Matches(base) {
			return false
		}
		extended := map[string]string{k1: v1, k2: v2}
		if k2 == k1 && v2 != v1 {
			return true // overwrote the matched label: exempt
		}
		return sel.Matches(extended)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFieldInventoryIncludesCriticalFields(t *testing.T) {
	// The paper's critical-field set (§V-C2): dependency fields (labels,
	// selectors, ownerReferences, targetRef, managedBy), identity fields
	// (name, namespace, uid), networking fields, replicas, image, command.
	rs := &ReplicaSet{
		Metadata: ObjectMeta{
			Name: "rs", Namespace: "default", UID: "u1",
			Labels:          map[string]string{"app": "web"},
			OwnerReferences: []OwnerReference{{Kind: "Deployment", Name: "d", UID: "u0", Controller: true}},
		},
		Spec: ReplicaSetSpec{
			Replicas: 2,
			Selector: LabelSelector{MatchLabels: map[string]string{"app": "web"}},
			Template: PodTemplate{
				Labels: map[string]string{"app": "web"},
				Spec: PodSpec{Containers: []Container{{
					Name: "c", Image: "web:1", Command: []string{"serve"}, Port: 8080,
				}}},
			},
		},
	}
	paths := make(map[string]bool)
	for _, f := range codec.Fields(rs) {
		paths[f.Path] = true
	}
	for _, want := range []string{
		"metadata.name",
		"metadata.namespace",
		"metadata.uid",
		"metadata.labels[app]",
		"metadata.ownerReferences[0].uid",
		"spec.replicas",
		"spec.selector.matchLabels[app]",
		"spec.template.labels[app]",
		"spec.template.spec.containers[0].image",
		"spec.template.spec.containers[0].command[0]",
		"spec.template.spec.containers[0].port",
	} {
		if !paths[want] {
			t.Errorf("field inventory missing %q; have %d fields", want, len(paths))
		}
	}
}

// sampleObjects returns one object of every kind, in Kinds() order, with every
// section populated.
func sampleObjects() []Object {
	return []Object{
		&Pod{
			Metadata: ObjectMeta{Name: "p", Namespace: "default", UID: "u1",
				Labels:          map[string]string{"a": "b"},
				Annotations:     map[string]string{"x": "y"},
				OwnerReferences: []OwnerReference{{Kind: "ReplicaSet", Name: "r", UID: "u0", Controller: true}},
				CreatedMillis:   5, Generation: 2, ManagedBy: "kcm"},
			Spec: PodSpec{NodeName: "n", Priority: 3,
				Containers:   []Container{{Name: "c", Image: "i", Command: []string{"serve", "-x"}, RequestsMilliCPU: 1, Port: 80}},
				Tolerations:  []Toleration{{Key: "k", Effect: "NoExecute", TolerationSecs: 4}},
				NodeSelector: map[string]string{"role": "w"}, RestartPolicy: "Always", VolumeSeed: "s"},
			Status: PodStatus{Phase: "Running", PodIP: "10.0.0.1", Ready: true, RestartCount: 1, StartedMillis: 9},
		},
		&ReplicaSet{Metadata: ObjectMeta{Name: "rs"}, Spec: ReplicaSetSpec{Replicas: 3,
			Selector: LabelSelector{MatchLabels: map[string]string{"a": "b"}},
			Template: PodTemplate{Labels: map[string]string{"a": "b"},
				Spec: PodSpec{Containers: []Container{{Name: "c", Image: "i", Command: []string{"serve"}}}}}},
			Status: ReplicaSetStatus{Replicas: 2, ReadyReplicas: 1}},
		&Deployment{Metadata: ObjectMeta{Name: "d"}, Spec: DeploymentSpec{Replicas: 2, MaxSurge: 1, MaxUnavailable: 1,
			Selector: LabelSelector{MatchLabels: map[string]string{"a": "b"}},
			Template: PodTemplate{Labels: map[string]string{"a": "b"}}},
			Status: DeploymentStatus{Replicas: 2, ReadyReplicas: 2, UpdatedReplicas: 2}},
		&DaemonSet{Metadata: ObjectMeta{Name: "ds"}, Spec: DaemonSetSpec{
			Selector: LabelSelector{MatchLabels: map[string]string{"a": "b"}},
			Template: PodTemplate{Labels: map[string]string{"a": "b"}}},
			Status: DaemonSetStatus{DesiredNumber: 5, CurrentNumber: 4, NumberReady: 3}},
		&Service{Metadata: ObjectMeta{Name: "s"}, Spec: ServiceSpec{
			Selector: map[string]string{"a": "b"}, ClusterIP: "10.96.0.2",
			Ports: []ServicePort{{Port: 80, TargetPort: 8080, Protocol: "TCP"}}}},
		&Endpoints{Metadata: ObjectMeta{Name: "e"}, Subsets: []EndpointSubset{{
			Addresses: []EndpointAddress{{IP: "10.1.1.1", NodeName: "n",
				TargetRef: TargetRef{Kind: "Pod", Name: "p", UID: "u"}}},
			Ports: []int64{8080, 9090}}}},
		&Node{Metadata: ObjectMeta{Name: "n", Labels: map[string]string{"r": "w"}},
			Spec:   NodeSpec{PodCIDR: "10.244.1.0/24", Taints: []Taint{{Key: "k", Value: "v", Effect: "NoSchedule"}}, Unschedulable: true},
			Status: NodeStatus{CapacityMilliCPU: 8000, Ready: true, LastHeartbeatMillis: 77, Address: "1.2.3.4"}},
		&Namespace{Metadata: ObjectMeta{Name: "ns"}, Phase: "Active"},
		&ConfigMap{Metadata: ObjectMeta{Name: "cm"}, Data: map[string]string{"k": "v"}},
		&Lease{Metadata: ObjectMeta{Name: "l"}, Spec: LeaseSpec{HolderIdentity: "h", DurationSecs: 15, RenewMillis: 42}},
	}
}

// The hand-written clones must agree with a wire round trip for every kind:
// any divergence would mean a field the codec knows about is not deep-copied.
func TestHandClonesMatchWireRoundTrip(t *testing.T) {
	for _, o := range sampleObjects() {
		hand := o.Clone()
		wire, err := codec.Marshal(o)
		if err != nil {
			t.Fatalf("%s: %v", o.Kind(), err)
		}
		handWire, err := codec.Marshal(hand)
		if err != nil {
			t.Fatalf("%s: %v", o.Kind(), err)
		}
		if string(wire) != string(handWire) {
			t.Fatalf("%s: hand clone diverges from original on the wire", o.Kind())
		}
	}
}
