package apiserver

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// requestSamples returns one populated object of every kind, as a component
// would write it.
func requestSamples() []spec.Object {
	tpl := spec.PodTemplate{Labels: map[string]string{"app": "web"}, Spec: testPod("t").Spec}
	sel := spec.LabelSelector{MatchLabels: map[string]string{"app": "web"}}
	meta := func(name string) spec.ObjectMeta {
		return spec.ObjectMeta{
			Name: name, Namespace: spec.DefaultNamespace, UID: spec.FormatUID(7), ResourceVersion: 12,
			Labels:          map[string]string{"app": "web", "tier": "front"},
			Annotations:     map[string]string{"note": "x"},
			OwnerReferences: []spec.OwnerReference{{Kind: "ReplicaSet", Name: "web-1", UID: spec.FormatUID(6), Controller: true}},
			CreatedMillis:   1713312000123, Generation: 3, ManagedBy: "kcm",
		}
	}
	pod := testPod("web-1")
	pod.Metadata = meta("web-1")
	pod.Spec.NodeName, pod.Spec.Priority = "worker-0", 100
	pod.Spec.Tolerations = []spec.Toleration{{Key: "edge", Effect: spec.TaintNoSchedule, TolerationSecs: 30}}
	pod.Spec.NodeSelector = map[string]string{"zone": "z1"}
	pod.Status = spec.PodStatus{Phase: spec.PodRunning, PodIP: "10.244.0.3", Ready: true, RestartCount: 2, StartedMillis: 5}
	node := &spec.Node{Metadata: meta("worker-0"),
		Spec:   spec.NodeSpec{PodCIDR: "10.244.0.0/24", Taints: []spec.Taint{{Key: "edge", Effect: spec.TaintNoSchedule}}},
		Status: spec.NodeStatus{CapacityMilliCPU: 4000, AllocatableMemMB: 2048, Ready: true, LastHeartbeatMillis: 9, Address: "10.0.0.1"}}
	node.Metadata.Namespace = ""
	ns := &spec.Namespace{Metadata: meta("team"), Phase: "Active"}
	ns.Metadata.Namespace = ""
	svc := testService("web")
	svc.Metadata = meta("web")
	svc.Spec.ClusterIP = "10.96.0.9"
	return []spec.Object{
		pod,
		&spec.ReplicaSet{Metadata: meta("web-1"), Spec: spec.ReplicaSetSpec{Replicas: 3, Selector: sel, Template: tpl},
			Status: spec.ReplicaSetStatus{Replicas: 3, ReadyReplicas: 2}},
		&spec.Deployment{Metadata: meta("web"), Spec: spec.DeploymentSpec{Replicas: 3, Selector: sel, Template: tpl, MaxUnavailable: 1, MaxSurge: 1},
			Status: spec.DeploymentStatus{Replicas: 3, ReadyReplicas: 3, UpdatedReplicas: 1}},
		&spec.DaemonSet{Metadata: meta("agent"), Spec: spec.DaemonSetSpec{Selector: sel, Template: tpl},
			Status: spec.DaemonSetStatus{DesiredNumber: 4, CurrentNumber: 3, NumberReady: 3}},
		svc,
		&spec.Endpoints{Metadata: meta("web"), Subsets: []spec.EndpointSubset{{
			Addresses: []spec.EndpointAddress{{IP: "10.244.0.3", NodeName: "worker-0",
				TargetRef: spec.TargetRef{Kind: "Pod", Name: "web-1", UID: spec.FormatUID(7)}}},
			Ports: []int64{8080},
		}}},
		node,
		ns,
		&spec.ConfigMap{Metadata: meta("cfg"), Data: map[string]string{"k": "v"}},
		&spec.Lease{Metadata: meta("kcm"), Spec: spec.LeaseSpec{HolderIdentity: "kcm-0", DurationSecs: 15, RenewMillis: 3}},
	}
}

// The object a request no hook changed is applied as — a status clone for a
// status write, a deep clone otherwise — encodes exactly as the decode of the
// caller's encoding would, for every kind and any object the codec can
// produce. Bytes a hook
// put in place of the server's, equal or not, are decoded; and the caller's
// object comes out of either path as it went in.
func FuzzRequestCopyMatchesRoundTrip(f *testing.F) {
	for _, obj := range requestSamples() {
		data := mustMarshal(obj)
		f.Add(data)
		for off := 0; off < len(data); off += 7 {
			flipped := bytes.Clone(data)
			flipped[off] ^= 1 << (off % 8)
			f.Add(flipped)
		}
	}
	loop := sim.NewLoop(1)
	srv := New(loop, store.NewReplicated(loop, 1, nil), nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range spec.Kinds() {
			obj := spec.New(kind)
			if codecUnmarshal(data, obj) != nil {
				continue
			}
			before := mustMarshal(obj)
			wire := spec.New(kind)
			if err := codecUnmarshal(before, wire); err != nil {
				t.Fatalf("%s: %x decodes, its encoding %x does not: %v", kind, data, before, err)
			}
			want := mustMarshal(wire)
			for _, verb := range []Verb{VerbCreate, VerbUpdate, VerbUpdateStatus} {
				for _, asks := range []string{"none", "Encoded", "equal bytes"} {
					msg := &Message{Verb: verb, Kind: kind, obj: obj, srv: srv}
					switch asks {
					case "Encoded":
						msg.Encoded()
					case "equal bytes":
						msg.Data = bytes.Clone(msg.Encoded())
					}
					got, err := srv.received(msg, obj)
					if err != nil {
						t.Fatalf("%s %s (hook asked: %s): %v", verb, kind, asks, err)
					}
					if got == obj {
						t.Fatalf("%s %s (hook asked: %s): the server applies the caller's instance", verb, kind, asks)
					}
					if b := mustMarshal(got); !bytes.Equal(b, want) {
						t.Fatalf("%s %s (hook asked: %s): applied object encodes as %x, the round trip as %x", verb, kind, asks, b, want)
					}
					if b := mustMarshal(obj); !bytes.Equal(b, before) || obj.Meta().Sealed() {
						t.Fatalf("%s %s (hook asked: %s): the caller's object changed", verb, kind, asks)
					}
				}
			}
		}
	})
}

// A request that crossed a hook which changed nothing leaves the caller's
// object as it was: a created object gets no UID, no revision and no seal,
// and a status donor keeps the revision it was written at. Without a hook
// the server applies the caller's instance itself, and reports the committed
// revision back on the donor.
func TestHookedRequestLeavesCallerObjectUntouched(t *testing.T) {
	hooks := map[string]Hook{
		"pass-through": func(*Message) Action { return Pass },
		"reads bytes":  func(m *Message) Action { m.Encoded(); return Pass },
	}
	for name, hook := range hooks {
		t.Run(name, func(t *testing.T) {
			loop, _, srv := newTestServer(t)
			srv.SetRequestHook(hook)
			c := srv.ClientFor("test")
			pod := testPod("web-1")
			if err := c.Create(pod); err != nil {
				t.Fatal(err)
			}
			if m := pod.Metadata; m.UID != "" || m.ResourceVersion != 0 || m.Generation != 0 || m.Sealed() {
				t.Fatalf("created pod: UID %q, RV %d, generation %d, sealed %v; want all unset", m.UID, m.ResourceVersion, m.Generation, m.Sealed())
			}
			settle(loop)
			obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
			if err != nil || obj.Meta().UID == "" {
				t.Fatalf("stored pod: %v, %v; want it stamped", obj, err)
			}
			donor := spec.CloneForStatusAs(obj.(*spec.Pod))
			rv := donor.Metadata.ResourceVersion
			donor.Status.Ready = true
			if err := c.UpdateStatus(donor); err != nil {
				t.Fatal(err)
			}
			if donor.Metadata.ResourceVersion != rv || donor.Metadata.Sealed() {
				t.Fatalf("status donor: RV %d (sealed %v) after the write, want %d", donor.Metadata.ResourceVersion, donor.Metadata.Sealed(), rv)
			}
			settle(loop)
			obj, _ = c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
			if !obj.(*spec.Pod).Status.Ready || obj.Meta().ResourceVersion == rv {
				t.Fatal("the status write did not commit")
			}

			srv.SetRequestHook(nil)
			donor = spec.CloneForStatusAs(obj.(*spec.Pod))
			donor.Status.Ready = false
			if err := c.UpdateStatus(donor); err != nil {
				t.Fatal(err)
			}
			if donor.Metadata.ResourceVersion <= obj.Meta().ResourceVersion {
				t.Fatalf("unhooked status donor: RV %d, want the committed revision past %d", donor.Metadata.ResourceVersion, obj.Meta().ResourceVersion)
			}
		})
	}
}

// Whether a request hook asks for the bytes of every request or of none, the
// store commits the same entries at the same revisions — and the same as with
// no hook at all.
func TestRequestBytesOnDemandCommitSameEntries(t *testing.T) {
	hooks := []struct {
		name string
		hook Hook
	}{
		{"no hook", nil},
		{"asks for none", func(*Message) Action { return Pass }},
		{"asks for all", func(m *Message) Action { m.Encoded(); return Pass }},
	}
	var want []store.KV
	for _, h := range hooks {
		loop := sim.NewLoop(1)
		rep := store.NewReplicated(loop, 1, nil)
		srv := New(loop, rep, nil)
		srv.SetRequestHook(h.hook)
		writeProgram(t, loop, srv.ClientFor("test"))
		got := rep.Replica(0).List("")
		if want == nil {
			want = got
			if n := len(requestSamples()) - 1; len(want) != n {
				t.Fatalf("the program left %d entries, want %d", len(want), n)
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d", h.name, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Key != w.Key || g.Revision != w.Revision || !bytes.Equal(g.Bytes(), w.Bytes()) {
				t.Errorf("%s: entry %s at revision %d = %x, want %s at %d = %x", h.name, g.Key, g.Revision, g.Bytes(), w.Key, w.Revision, w.Bytes())
			}
		}
	}
}

// writeProgram issues every verb on every kind: creates, updates of spec and
// of status from fresh reads, a stale write that conflicts, and deletes.
func writeProgram(t *testing.T, loop *sim.Loop, c *Client) {
	t.Helper()
	step := func() { loop.RunUntil(loop.Now() + 100*time.Millisecond) }
	for _, obj := range requestSamples() {
		m := obj.Meta()
		m.UID, m.ResourceVersion, m.Generation, m.CreatedMillis = "", 0, 0, 0
		m.OwnerReferences = nil
		if err := c.Create(obj); err != nil {
			t.Fatalf("create %s: %v", obj.Kind(), err)
		}
	}
	step()
	for round := 0; round < 3; round++ {
		for _, sample := range requestSamples() {
			m := sample.Meta()
			cur, err := c.Get(sample.Kind(), m.Namespace, m.Name)
			if err != nil {
				t.Fatalf("get %s: %v", sample.Kind(), err)
			}
			upd := spec.CloneForWrite(cur)
			upd.Meta().Annotations = map[string]string{"round": fmt.Sprint(round)}
			if err := c.Update(upd); err != nil {
				t.Fatalf("update %s: %v", sample.Kind(), err)
			}
			step()
			cur, _ = c.Get(sample.Kind(), m.Namespace, m.Name)
			if spec.StatusOf(cur) != nil {
				st := spec.CloneForStatus(cur)
				switch o := st.(type) {
				case *spec.Pod:
					o.Status.RestartCount = int64(round)
				case *spec.Node:
					o.Status.LastHeartbeatMillis = int64(round)
				case *spec.ReplicaSet:
					o.Status.ReadyReplicas = int64(round)
				case *spec.Deployment:
					o.Status.UpdatedReplicas = int64(round)
				case *spec.DaemonSet:
					o.Status.NumberReady = int64(round)
				}
				if err := c.UpdateStatus(st); err != nil {
					t.Fatalf("update status %s: %v", sample.Kind(), err)
				}
				if err := c.UpdateStatus(spec.CloneForStatus(cur)); err == nil {
					t.Fatalf("stale status write to %s committed", sample.Kind())
				}
			}
			step()
		}
	}
	if err := c.Delete(spec.KindConfigMap, spec.DefaultNamespace, "cfg"); err != nil {
		t.Fatal(err)
	}
	step()
}

// A request issued from inside a request hook takes its own messages and
// encodes into a fresh array: the outer request's bytes, which its hook is
// still holding, are not overwritten, and both requests commit.
func TestNestedRequestKeepsOuterRequestBytes(t *testing.T) {
	loop, st, srv := newTestServer(t)
	c := srv.ClientFor("kcm")
	var innerErr error
	srv.SetRequestHook(func(m *Message) Action {
		before := bytes.Clone(m.Encoded())
		if m.Name == "outer" {
			if m != &srv.reqMsg {
				t.Errorf("the outermost request was shown %p, want the server's scratch message", m)
			}
			innerErr = c.Create(testPod("inner"))
		} else if m == &srv.reqMsg {
			t.Error("the nested request was shown the outer request's message")
		}
		if !bytes.Equal(before, m.Data) {
			t.Errorf("%s: the request's bytes changed while its hook held them", m.Name)
		}
		return Pass
	})
	if err := c.Create(testPod("outer")); err != nil {
		t.Fatal(err)
	}
	if innerErr != nil {
		t.Fatalf("nested create: %v", innerErr)
	}
	settle(loop)
	for _, name := range []string{"outer", "inner"} {
		if _, ok := st.Get(spec.Key(spec.KindPod, spec.DefaultNamespace, name)); !ok {
			t.Fatalf("pod %s not stored", name)
		}
	}
}
