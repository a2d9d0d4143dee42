package apiserver

import (
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// Bytes on demand: an untampered write is stored as an object entry, its
// sealed object, and its bytes are made only when a reader asks. These tests
// pin down the mirror image of the decode-cache contract: the bytes an object
// entry makes are exactly what the write path would have stored — a Marshal
// of the object at the resourceVersion its writer saw — per kind and after
// status updates, restarts and replication; any byte-level fault (at-rest
// corruption, tampered store writes) leaves bytes in the store instead; and no
// hook on another channel reaches a stored object.

// objectEntry returns what the store holds under key, failing unless it is
// an object entry whose bytes hold the rule: as many as its size, decoding to
// the object at a resourceVersion below the one it is stored at, and,
// stamped with that revision, re-encoding to a fresh Marshal of the object.
// It returns the bytes and the resourceVersion they carry.
func objectEntry(t *testing.T, st *store.Store, key string) ([]byte, int64) {
	t.Helper()
	kv, ok := st.Get(key)
	if !ok || kv.Object() == nil {
		t.Fatalf("%s: stored %+v (ok=%v), want an object entry", key, kv, ok)
	}
	b := kv.Bytes()
	if int64(len(b)) != kv.Size() {
		t.Fatalf("%s: the entry counts %d bytes, makes %d", key, kv.Size(), len(b))
	}
	wire := spec.New(kv.Kind)
	if err := codecUnmarshal(b, wire); err != nil {
		t.Fatalf("%s: the on-demand bytes do not decode: %v", key, err)
	}
	if string(mustMarshal(wire)) != string(b) {
		t.Fatalf("%s: the on-demand bytes are not the canonical encoding of what they decode to", key)
	}
	rv := wire.Meta().ResourceVersion
	if rv >= kv.Revision {
		t.Fatalf("%s: the bytes carry rv %d, stored at revision %d", key, rv, kv.Revision)
	}
	wire.Meta().ResourceVersion = kv.Revision
	if string(mustMarshal(wire)) != string(mustMarshal(kv.Object())) {
		t.Fatalf("%s: the on-demand bytes, stamped with revision %d, differ from the stored object", key, kv.Revision)
	}
	return b, rv
}

// writtenBytes is what the write path would have stored for obj: its encoding
// at resourceVersion rv.
func writtenBytes(obj spec.Object, rv int64) []byte {
	w := spec.CloneForWrite(obj)
	w.Meta().ResourceVersion = rv
	return mustMarshal(w)
}

// A create and a status update each store their object, whose bytes are the
// encoding the write path would have stored: at resourceVersion 0 for the
// create, at the create's revision — the one the status writer saw — for the
// update.
func TestEncodeCachePrimedBytesMatchFreshMarshal(t *testing.T) {
	loop, st, srv := newTestServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
	b, rv := objectEntry(t, st, key)
	created, _ := st.Get(key)
	if rv != 0 || string(b) != string(writtenBytes(created.Object(), 0)) {
		t.Fatalf("the create's bytes carry rv %d, or are not its encoding at rv 0", rv)
	}

	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	upd := spec.CloneForStatusAs(obj.(*spec.Pod))
	upd.Status.Phase = spec.PodRunning
	upd.Status.Ready = true
	upd.Status.PodIP = "10.244.0.7"
	if err := c.UpdateStatus(upd); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	b2, rv2 := objectEntry(t, st, key)
	updated, _ := st.Get(key)
	if rv2 != created.Revision || string(b2) != string(writtenBytes(updated.Object(), created.Revision)) {
		t.Fatalf("the status update's bytes carry rv %d, want the %d its writer saw, or are not its encoding there", rv2, created.Revision)
	}
	stored := spec.New(spec.KindPod)
	if err := codecUnmarshal(b2, stored); err != nil {
		t.Fatal(err)
	}
	if p := stored.(*spec.Pod); p.Status.PodIP != "10.244.0.7" || !p.Status.Ready || p.Metadata.Labels["app"] != "web" {
		t.Fatalf("the status update's bytes decode to %+v", p)
	}
}

// Per-kind exactness: for every kind carrying a status section, the object
// UpdateStatus stores makes bytes that round-trip exactly — decoding them and
// re-encoding at the committed revision reproduces the stored object — so an
// object entry is indistinguishable from the bytes a full Marshal would have
// stored.
func TestEncodeCacheSpliceRoundTripsPerKind(t *testing.T) {
	newRS := func(name string) *spec.ReplicaSet {
		return &spec.ReplicaSet{
			Metadata: spec.ObjectMeta{
				Name: name, Namespace: spec.DefaultNamespace,
				Labels: map[string]string{"app": name},
			},
			Spec: spec.ReplicaSetSpec{
				Replicas: 2,
				Selector: spec.LabelSelector{MatchLabels: map[string]string{"app": name}},
				Template: spec.PodTemplate{
					Labels: map[string]string{"app": name},
					Spec:   testPod("x").Spec,
				},
			},
		}
	}
	cases := []struct {
		kind   spec.Kind
		ns     string
		create spec.Object
		mutate func(spec.Object)
	}{
		{spec.KindPod, spec.DefaultNamespace, testPod("pod-1"), func(o spec.Object) {
			p := o.(*spec.Pod)
			p.Status.Phase = spec.PodRunning
			p.Status.Ready = true
			p.Status.PodIP = "10.244.1.9"
			p.Status.RestartCount = 3
		}},
		{spec.KindReplicaSet, spec.DefaultNamespace, newRS("rs-1"), func(o spec.Object) {
			rs := o.(*spec.ReplicaSet)
			rs.Status.Replicas = 2
			rs.Status.ReadyReplicas = 1
		}},
		{spec.KindDeployment, spec.DefaultNamespace, &spec.Deployment{
			Metadata: spec.ObjectMeta{
				Name: "dep-1", Namespace: spec.DefaultNamespace,
				Labels: map[string]string{"app": "dep-1"},
			},
			Spec: spec.DeploymentSpec{
				Replicas: 1,
				Selector: spec.LabelSelector{MatchLabels: map[string]string{"app": "dep-1"}},
				Template: spec.PodTemplate{
					Labels: map[string]string{"app": "dep-1"},
					Spec:   testPod("x").Spec,
				},
			},
		}, func(o spec.Object) {
			d := o.(*spec.Deployment)
			d.Status.Replicas = 1
			d.Status.UpdatedReplicas = 1
		}},
		{spec.KindDaemonSet, spec.DefaultNamespace, &spec.DaemonSet{
			Metadata: spec.ObjectMeta{
				Name: "ds-1", Namespace: spec.DefaultNamespace,
				Labels: map[string]string{"app": "ds-1"},
			},
			Spec: spec.DaemonSetSpec{
				Selector: spec.LabelSelector{MatchLabels: map[string]string{"app": "ds-1"}},
				Template: spec.PodTemplate{
					Labels: map[string]string{"app": "ds-1"},
					Spec:   testPod("x").Spec,
				},
			},
		}, func(o spec.Object) {
			ds := o.(*spec.DaemonSet)
			ds.Status.DesiredNumber = 3
			ds.Status.NumberReady = 2
		}},
		{spec.KindNode, "", &spec.Node{
			Metadata: spec.ObjectMeta{Name: "node-1"},
			Spec:     spec.NodeSpec{PodCIDR: "10.244.0.0/24"},
		}, func(o spec.Object) {
			n := o.(*spec.Node)
			n.Status.Ready = true
			n.Status.LastHeartbeatMillis = 12345
			n.Status.Address = "192.168.0.7"
		}},
	}
	for _, tc := range cases {
		t.Run(string(tc.kind), func(t *testing.T) {
			loop, st, srv := newTestServer(t)
			c := srv.ClientFor("test")
			if err := c.Create(tc.create); err != nil {
				t.Fatal(err)
			}
			settle(loop)
			obj, err := c.Get(tc.kind, tc.ns, tc.create.Meta().Name)
			if err != nil {
				t.Fatal(err)
			}
			upd := spec.CloneForStatus(obj)
			tc.mutate(upd)
			if err := c.UpdateStatus(upd); err != nil {
				t.Fatal(err)
			}
			settle(loop)

			key := spec.Key(tc.kind, tc.ns, tc.create.Meta().Name)
			// The status update's object, stored with bytes that are the
			// canonical encoding of what they decode to, at the revision
			// its writer saw.
			if _, rv := objectEntry(t, st, key); rv != obj.Meta().ResourceVersion {
				t.Fatalf("the status update's bytes carry rv %d, its writer saw %d", rv, obj.Meta().ResourceVersion)
			}
		})
	}
}

// At-rest corruption replaces the stored object with bytes: the next status
// update must be built from the corrupted current state, never from the
// object the corruption replaced.
func TestEncodeCacheNeverServesStaleBytes(t *testing.T) {
	loop, st, srv := newTestServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
	objectEntry(t, st, key)

	// Rewrite a label at rest: the replaced object still carries app=web,
	// the store now says app=rotten.
	st.CorruptAtRest(key, func(b []byte) []byte {
		obj := spec.New(spec.KindPod)
		if err := codecUnmarshal(b, obj); err != nil {
			return b
		}
		obj.Meta().Labels = map[string]string{"app": "rotten"}
		return mustMarshal(obj)
	})
	if kv, _ := st.Get(key); kv.Object() != nil {
		t.Fatal("the store still holds the object after its bytes were rewritten at rest")
	}

	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	upd := spec.CloneForStatusAs(obj.(*spec.Pod))
	upd.Status.Ready = true
	if err := c.UpdateStatus(upd); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	b, _ := objectEntry(t, st, key)
	stored := spec.New(spec.KindPod)
	if err := codecUnmarshal(b, stored); err != nil {
		t.Fatal(err)
	}
	if got := stored.Meta().Labels["app"]; got != "rotten" {
		t.Fatalf("status update persisted label app=%q — the pre-corruption object was served", got)
	}
}

// An apiserver restart rebuilds its caches from the store; a post-restart
// status update stores its object, whose bytes hold the rule.
func TestEncodeCacheSurvivesRestart(t *testing.T) {
	loop, st, srv := newTestServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	srv.Restart()
	loop.RunUntil(loop.Now() + time.Second)

	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	upd := spec.CloneForStatusAs(obj.(*spec.Pod))
	upd.Status.Phase = spec.PodRunning
	if err := c.UpdateStatus(upd); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
	if _, rv := objectEntry(t, st, key); rv != obj.Meta().ResourceVersion {
		t.Fatalf("the post-restart bytes carry rv %d, its writer saw %d", rv, obj.Meta().ResourceVersion)
	}
}

// Object entries fan out through replication like any other write: a lost
// replica comes back by state transfer holding the same entry, and the group
// converges on it.
func TestEncodeCacheSplicedWritesConvergeAcrossReplicas(t *testing.T) {
	loop := sim.NewLoop(31)
	rep := store.NewReplicated(loop, 3, nil)
	srv := NewControlPlane(loop, rep, nil, nil).Servers[0]
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)

	rep.DropReplica(2)
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	upd := spec.CloneForStatusAs(obj.(*spec.Pod))
	upd.Status.Phase = spec.PodRunning
	upd.Status.Ready = true
	if err := c.UpdateStatus(upd); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)

	rep.RestoreReplica(2)
	rep.Heal()
	loop.RunUntil(loop.Now() + time.Second)

	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
	if !rep.Converged(key) {
		t.Fatal("replicas did not converge on the status write after heal")
	}
	kv, ok := rep.Replica(2).Get(key)
	if !ok {
		t.Fatal("healed replica missing the status write")
	}
	got := spec.New(spec.KindPod)
	if err := codecUnmarshal(kv.Bytes(), got); err != nil {
		t.Fatalf("healed replica holds undecodable bytes: %v", err)
	}
	if p := got.(*spec.Pod); p.Status.Phase != spec.PodRunning || !p.Status.Ready {
		t.Fatal("healed replica lost the status update")
	}
}

// A request hook changes only the bytes the server decodes its request object
// from: an untampered request is still stored as its object, whose bytes hold
// the rule, whether the hook passes the bytes through or flips a status field
// in them. The flipping hook leaves Tampered unset, as a component's own
// change would: a tampered write is stored as bytes
// (TestEncodeCacheNotPrimedByTamperedWrite).
func TestEncodeCacheRecordsStatusOffsetUnderRequestHook(t *testing.T) {
	flipReady := func(m *Message) Action {
		if m.Verb != VerbUpdateStatus {
			return Pass
		}
		p := &spec.Pod{}
		if err := codec.Unmarshal(m.Encoded(), p); err != nil {
			t.Fatal(err)
		}
		p.Status.Ready = !p.Status.Ready
		m.Data = mustMarshal(p)
		return Pass
	}
	for _, tc := range []struct {
		name  string
		hook  Hook
		ready bool // status.ready stored by an update that sets it
	}{
		{"pass-through", func(*Message) Action { return Pass }, true},
		{"status flip", flipReady, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loop, st, srv := newTestServer(t)
			srv.SetRequestHook(tc.hook)
			c := srv.ClientFor("test")
			if err := c.Create(testPod("web-1")); err != nil {
				t.Fatal(err)
			}
			settle(loop)
			key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
			objectEntry(t, st, key)

			obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
			if err != nil {
				t.Fatal(err)
			}
			upd := spec.CloneForStatusAs(obj.(*spec.Pod))
			upd.Status.Ready = true
			if err := c.UpdateStatus(upd); err != nil {
				t.Fatal(err)
			}
			settle(loop)
			b, _ := objectEntry(t, st, key)
			got := &spec.Pod{}
			if err := codecUnmarshal(b, got); err != nil {
				t.Fatal(err)
			}
			if got.Status.Ready != tc.ready {
				t.Fatalf("stored status.ready = %v, want %v", got.Status.Ready, tc.ready)
			}
		})
	}
}

// spliceStatus, which no write path calls while writes are stored as
// objects, still never guesses: an encoding whose prefix does not parse as
// metadata-first records yields no bytes (its caller falls back to a full
// marshal), and a well-formed one splices to the full marshal of the merged
// object.
func TestEncodeCacheMalformedPrefixFallsBackToFullMarshal(t *testing.T) {
	_, _, srv := newTestServer(t)
	cur := testPod("web-1")
	cur.Metadata.ResourceVersion = 4
	written := mustMarshal(cur)
	merged := spec.CloneForStatusAs(cur)
	merged.Metadata.ResourceVersion = 9
	merged.Status.Phase, merged.Status.Ready = spec.PodRunning, true
	if b, _ := srv.spliceStatus(nil, written[:1], merged); b != nil {
		t.Fatal("a splice onto an encoding cut mid-record succeeded")
	}
	b, err := srv.spliceStatus(nil, written, merged)
	if err != nil || string(b) != string(mustMarshal(merged)) {
		t.Fatalf("a splice onto a well-formed encoding = %x, %v; want the merged object's full marshal", b, err)
	}
}

// A tampering store-write hook's bytes are what the store keeps: a bytes
// entry, not the object the server wrote.
func TestEncodeCacheNotPrimedByTamperedWrite(t *testing.T) {
	loop, st, srv := newTestServer(t)
	srv.SetStoreWriteHook(func(m *Message) Action {
		if m.Kind != spec.KindPod {
			return Pass
		}
		obj := spec.New(m.Kind)
		if err := codecUnmarshal(m.Encoded(), obj); err != nil {
			return Pass
		}
		obj.(*spec.Pod).Status.Reason = "tampered-in-flight"
		m.Data = mustMarshal(obj)
		m.Tampered = true
		return Pass
	})
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
	kv, _ := st.Get(key)
	if kv.Object() != nil {
		t.Fatal("a tampered write was stored as the server's object")
	}
	got := &spec.Pod{}
	if err := codecUnmarshal(kv.Value, got); err != nil || got.Status.Reason != "tampered-in-flight" {
		t.Fatalf("the stored bytes decode to reason %q (%v), want the tampered one", got.Status.Reason, err)
	}
}

// The watch channel serves freshly encoded bytes, never a stored value: a
// hook that scribbles over the event payload must not reach the stored object,
// and later writes stay exact.
func TestEncodeCacheUnharmedByWatchHookMutation(t *testing.T) {
	loop, st, srv := newTestServer(t)
	srv.SetWatchHook(func(m *Message) Action {
		data := m.Encoded()
		for i := range data {
			data[i] ^= 0xff // scribble in place over the served bytes
		}
		return Drop // and lose the notification entirely
	})
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
	objectEntry(t, st, key) // the watch hook's scribbling did not reach the stored object
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	upd := spec.CloneForStatusAs(obj.(*spec.Pod))
	upd.Status.Ready = true
	if err := c.UpdateStatus(upd); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	objectEntry(t, st, key)
}
