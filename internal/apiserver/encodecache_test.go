package apiserver

import (
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// The status splice: a decode-cache entry the write path primed records where
// its stored array's status record starts, so a status-only update re-encodes
// just the status section and splices it onto that array's metadata+spec
// prefix, the committed revision patched in on the way. These tests pin down
// the mirror image of the decode-cache contract: what the splice builds from
// the stored array is always exactly what a fresh Marshal of the sealed object
// produces, any byte-level fault (at-rest corruption, tampered store writes,
// armed injection channels) leaves the entry without an offset, and the
// spliced encoding is byte-identical to a full re-encode per kind.

// wireOf returns the stored array under key when its decode-cache entry
// records a status offset for it, or nil.
func wireOf(srv *Server, key string) []byte {
	_, w, _, _ := srv.PrimedEncoding(key)
	return w
}

// wireCanonical holds the splice invariant for the entry cached under key and
// returns the canonical encoding rebuilt from its array: the entry is valid
// for the array the store holds, its offset is where a scan of that array
// finds the status record, and the array's prefix with the committed revision
// patched in, followed by the status record — re-encoded as the splice does
// it, and as the store holds it — is a fresh Marshal of the sealed object.
func wireCanonical(t *testing.T, srv *Server, key string) []byte {
	t.Helper()
	obj, w, off, ok := srv.PrimedEncoding(key)
	if !ok {
		t.Fatal("the decode-cache entry records no status offset for the stored array")
	}
	if gotOff, ok := codec.StatusOffset(w); !ok || gotOff != off {
		t.Fatalf("entry's status offset %d, StatusOffset says %d (ok=%v)", off, gotOff, ok)
	}
	prefix, ok := codec.AppendPrefixWithRV(nil, w[:off], obj.Meta().ResourceVersion)
	if !ok {
		t.Fatal("stored prefix does not parse")
	}
	spliced, err := codec.NewArena().AppendStructField(append([]byte(nil), prefix...), codec.ObjectStatusField, spec.StatusOf(obj))
	if err != nil {
		t.Fatal(err)
	}
	fresh := mustMarshal(obj)
	if string(spliced) != string(fresh) {
		t.Fatal("patched prefix + re-encoded status differs from a fresh Marshal of the sealed object")
	}
	if string(prefix)+string(w[off:]) != string(fresh) {
		t.Fatal("patched prefix + stored status record differs from a fresh Marshal of the sealed object")
	}
	return spliced
}

func TestEncodeCachePrimedBytesMatchFreshMarshal(t *testing.T) {
	loop, st, srv := newTestServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
	w := wireOf(srv, key)
	if w == nil {
		t.Fatal("create did not record a status offset for the stored array")
	}
	wireCanonical(t, srv, key)

	// A status update must splice onto the prefix and leave the new cached
	// entry equally exact.
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
	w2 := wireOf(srv, key)
	if w2 == nil {
		t.Fatal("status update did not record a status offset for its new array")
	}
	if string(w2) == string(w) {
		t.Fatal("status update left the old array in place")
	}
	wireCanonical(t, srv, key) // after a spliced status update, too
	// The stored bytes decode to the merged object (splice exactness against
	// the backend, not just the cache).
	kv, _ := st.Get(key)
	stored := spec.New(spec.KindPod)
	if err := codecUnmarshal(kv.Value, stored); err != nil {
		t.Fatalf("spliced stored bytes do not decode: %v", err)
	}
	if p := stored.(*spec.Pod); p.Status.PodIP != "10.244.0.7" || !p.Status.Ready {
		t.Fatal("spliced stored bytes lost the status update")
	}
	if p := stored.(*spec.Pod); p.Metadata.Labels["app"] != "web" {
		t.Fatal("spliced stored bytes lost the metadata prefix")
	}
}

// Per-kind splice exactness: for every kind carrying a status section, the
// bytes persisted by UpdateStatus must round-trip exactly — decoding them
// and re-encoding at the committed revision reproduces both the stored
// bytes' canonical form and the cached object, so a splice is
// indistinguishable from a full Marshal.
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
			kv, ok := st.Get(key)
			if !ok {
				t.Fatal("object missing after status update")
			}
			// The stored (spliced) bytes must be the canonical encoding of
			// the object they decode to.
			stored := spec.New(tc.kind)
			if err := codecUnmarshal(kv.Value, stored); err != nil {
				t.Fatalf("spliced bytes do not decode: %v", err)
			}
			if reenc := mustMarshal(stored); string(reenc) != string(kv.Value) {
				t.Fatal("spliced stored bytes are not the canonical encoding of the decoded object")
			}
			// The cached sealed object at the committed revision must
			// re-encode to what its entry's array splices to, and match a
			// real decode.
			if _, ok := srv.decoded.entries[key]; !ok {
				t.Fatal("status update did not prime the decode cache")
			}
			if w := wireOf(srv, key); w == nil {
				t.Fatal("status update did not record a status offset for the stored array")
			}
			canonical := wireCanonical(t, srv, key)
			stored.Meta().ResourceVersion = kv.Revision
			if refresh := mustMarshal(stored); string(refresh) != string(canonical) {
				t.Fatal("a real decode at the committed revision differs from the canonical form the stored array splices to")
			}
		})
	}
}

// At-rest corruption installs an array the decode-cache entry is not valid
// for: the next status update must be built from the corrupted current state,
// never from the pre-corruption prefix.
func TestEncodeCacheNeverServesStaleBytes(t *testing.T) {
	loop, st, srv := newTestServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
	if w := wireOf(srv, key); w == nil {
		t.Fatal("create did not record a status offset for the stored array")
	}

	// Rewrite a label at rest: the stale cached prefix still carries
	// app=web, the store now says app=rotten.
	st.CorruptAtRest(key, func(b []byte) []byte {
		obj := spec.New(spec.KindPod)
		if err := codecUnmarshal(b, obj); err != nil {
			return b
		}
		obj.Meta().Labels = map[string]string{"app": "rotten"}
		return mustMarshal(obj)
	})

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
	kv, _ := st.Get(key)
	stored := spec.New(spec.KindPod)
	if err := codecUnmarshal(kv.Value, stored); err != nil {
		t.Fatal(err)
	}
	if got := stored.Meta().Labels["app"]; got != "rotten" {
		t.Fatalf("status update persisted label app=%q — the stale pre-corruption prefix was served", got)
	}
}

// An apiserver restart rebuilds its caches from the store; post-restart
// status updates must re-encode from (and re-prime) fresh state.
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
	w := wireOf(srv, key)
	if w == nil {
		t.Fatal("post-restart status update did not record a status offset for the stored array")
	}
	kv, _ := st.Get(key)
	stored := spec.New(spec.KindPod)
	if err := codecUnmarshal(kv.Value, stored); err != nil {
		t.Fatal(err)
	}
	stored.Meta().ResourceVersion = kv.Revision
	if string(mustMarshal(stored)) != string(wireCanonical(t, srv, key)) {
		t.Fatal("post-restart splice source differs from a real decode of the stored bytes")
	}
}

// Spliced writes fan out through replication like any other write: bytes
// queued for a down replica are delivered verbatim on heal, and the group
// converges on the spliced encoding.
func TestEncodeCacheSplicedWritesConvergeAcrossReplicas(t *testing.T) {
	loop := sim.NewLoop(31)
	rep := store.NewReplicated(loop, 3, nil)
	srv := NewAt(loop, rep, 0, nil)
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
		t.Fatal("replicas did not converge on the spliced write after heal")
	}
	kv, ok := rep.Replica(2).Get(key)
	if !ok {
		t.Fatal("healed replica missing the spliced write")
	}
	got := spec.New(spec.KindPod)
	if err := codecUnmarshal(kv.Value, got); err != nil {
		t.Fatalf("healed replica holds undecodable bytes: %v", err)
	}
	if p := got.(*spec.Pod); p.Status.Phase != spec.PodRunning || !p.Status.Ready {
		t.Fatal("healed replica lost the status update")
	}
}

// An armed request channel must keep byte-fault semantics: no write records
// a status offset while the hook is live, and disarming via the wire gate
// restores the splice.
func TestEncodeCacheSuppressedWhileRequestChannelArmed(t *testing.T) {
	loop, _, srv := newTestServer(t)
	armed := true
	srv.SetRequestHook(func(m *Message) Action { return Pass })
	srv.SetRequestWireGate(func() bool { return armed })
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
	if w := wireOf(srv, key); w != nil {
		t.Fatal("a status offset was recorded while the request channel was armed")
	}

	armed = false
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
	w := wireOf(srv, key)
	if w == nil {
		t.Fatal("disarmed request channel did not restore encode-cache priming")
	}
	wireCanonical(t, srv, key) // exact after the re-arming cycle
}

// A prefix that does not parse as metadata-first records is never guessed at:
// the status update falls back to a full marshal, and what reaches the store is
// the canonical encoding all the same.
func TestEncodeCacheMalformedPrefixFallsBackToFullMarshal(t *testing.T) {
	loop, st, srv := newTestServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
	// Move the entry's status offset into the metadata record's length: the
	// entry stays valid for the stored array, so the write path is offered a
	// prefix cut mid-record.
	e := srv.decoded.entries[key]
	e.statusOff = 1
	srv.decoded.entries[key] = e
	if _, ok := codec.AppendPrefixWithRV(nil, wireOf(srv, key)[:e.statusOff], 1); ok {
		t.Fatal("a prefix cut mid-record parses; the test no longer offers a malformed one")
	}
	bad := e.obj

	upd := spec.CloneForStatusAs(bad.(*spec.Pod))
	upd.Status.Phase = spec.PodRunning
	upd.Status.Ready = true
	if err := c.UpdateStatus(upd); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	kv, _ := st.Get(key)
	want := spec.CloneForStatusAs(bad.(*spec.Pod)) // at the revision the writer saw
	want.Status.Phase, want.Status.Ready = spec.PodRunning, true
	if string(kv.Value) != string(mustMarshal(want)) {
		t.Fatal("a status update over a malformed cached prefix did not store a full marshal of the merged object")
	}
	wireCanonical(t, srv, key) // and the new entry is primed from the stored array
}

// A tampering store-write hook taints the key; the tainted write must not
// record a status offset for bytes it did not encode.
func TestEncodeCacheNotPrimedByTamperedWrite(t *testing.T) {
	loop, _, srv := newTestServer(t)
	srv.SetStoreWriteHook(func(m *Message) Action {
		if m.Kind != spec.KindPod {
			return Pass
		}
		obj := spec.New(m.Kind)
		if err := codecUnmarshal(m.Data, obj); err != nil {
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
	if w := wireOf(srv, key); w != nil {
		t.Fatal("a tampered write recorded a status offset")
	}
}

// The watch channel serves freshly encoded bytes, never a stored array: a
// hook that scribbles over the event payload must not damage what a splice
// copies, and later spliced writes stay exact.
func TestEncodeCacheUnharmedByWatchHookMutation(t *testing.T) {
	loop, st, srv := newTestServer(t)
	srv.SetWatchHook(func(m *Message) Action {
		for i := range m.Data {
			m.Data[i] ^= 0xff // scribble in place over the served bytes
		}
		return Drop // and lose the notification entirely
	})
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
	w := wireOf(srv, key)
	if w == nil {
		t.Fatal("create did not record a status offset for the stored array")
	}
	wireCanonical(t, srv, key) // the watch hook's scribbling did not reach the stored array
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
	kv, _ := st.Get(key)
	stored := spec.New(spec.KindPod)
	if err := codecUnmarshal(kv.Value, stored); err != nil {
		t.Fatalf("spliced bytes after watch tampering do not decode: %v", err)
	}
	if reenc := mustMarshal(stored); string(reenc) != string(kv.Value) {
		t.Fatal("spliced bytes after watch tampering are not canonical")
	}
}
