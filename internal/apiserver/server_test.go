package apiserver

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

func newTestServer(t *testing.T) (*sim.Loop, *store.Store, *Server) {
	t.Helper()
	loop := sim.NewLoop(1)
	st := store.NewReplicated(loop, 1, nil)
	srv := New(loop, st, nil)
	return loop, st.Replica(0), srv
}

func testPod(name string) *spec.Pod {
	return &spec.Pod{
		Metadata: spec.ObjectMeta{
			Name: name, Namespace: spec.DefaultNamespace,
			Labels: map[string]string{"app": "web"},
		},
		Spec: spec.PodSpec{
			Containers: []spec.Container{{
				Name: "web", Image: "registry.local/web:1.0",
				RequestsMilliCPU: 100, RequestsMemMB: 64,
				LimitsMilliCPU: 200, LimitsMemMB: 128, Port: 8080,
			}},
		},
	}
}

func TestCreateGetRoundTrip(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatalf("Create: %v", err)
	}
	loop.RunUntil(time.Second)
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	pod := obj.(*spec.Pod)
	if pod.Metadata.UID == "" {
		t.Fatal("create did not assign a UID")
	}
	if pod.Metadata.CreatedMillis == 0 {
		t.Fatal("create did not stamp creation time")
	}
	if pod.Metadata.ResourceVersion == 0 {
		t.Fatal("cached object has no resource version")
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	if err := c.Create(testPod("web-1")); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("duplicate create err = %v, want ErrAlreadyExists", err)
	}
}

func TestUpdateRequiresMatchingResourceVersion(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	pod := spec.CloneForWriteAs(obj.(*spec.Pod))
	stale := pod.Clone().(*spec.Pod)

	pod.Metadata.Labels["extra"] = "x"
	if err := c.Update(pod); err != nil {
		t.Fatalf("Update: %v", err)
	}
	loop.RunUntil(2 * time.Second)

	stale.Metadata.Labels["conflict"] = "y"
	if err := c.Update(stale); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale update err = %v, want ErrConflict", err)
	}
}

func TestUpdateStatusCannotChangeSpec(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("kubelet")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	obj, _ := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	pod := spec.CloneForWriteAs(obj.(*spec.Pod))
	pod.Status.Phase = spec.PodRunning
	pod.Status.PodIP = "10.244.1.5"
	pod.Spec.NodeName = "sneaky-node" // must be discarded by the subresource
	if err := c.UpdateStatus(pod); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(2 * time.Second)
	obj, _ = c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	got := obj.(*spec.Pod)
	if got.Status.Phase != spec.PodRunning || got.Status.PodIP != "10.244.1.5" {
		t.Fatalf("status not updated: %+v", got.Status)
	}
	if got.Spec.NodeName != "" {
		t.Fatal("UpdateStatus leaked a spec change")
	}
}

func TestDeleteAndWatchEvents(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("test")
	var events []WatchEvent
	c.Watch(spec.KindPod, func(ev WatchEvent) { events = append(events, ev) })
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	if err := c.Delete(spec.KindPod, spec.DefaultNamespace, "web-1"); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(2 * time.Second)
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Type != Added || events[1].Type != Deleted {
		t.Fatalf("event types = %v, %v", events[0].Type, events[1].Type)
	}
	if _, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete err = %v", err)
	}
}

func TestValidationRejectsBadObjects(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("kbench")
	loop.RunUntil(time.Millisecond)

	noName := testPod("")
	if err := c.Create(noName); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty name err = %v, want ErrInvalid", err)
	}
	badName := testPod("Web_1") // uppercase + underscore
	if err := c.Create(badName); !errors.Is(err, ErrInvalid) {
		t.Errorf("bad name err = %v, want ErrInvalid", err)
	}
	noContainers := testPod("web-1")
	noContainers.Spec.Containers = nil
	if err := c.Create(noContainers); !errors.Is(err, ErrInvalid) {
		t.Errorf("no containers err = %v, want ErrInvalid", err)
	}
	badImage := testPod("web-2")
	badImage.Spec.Containers[0].Image = ""
	if err := c.Create(badImage); !errors.Is(err, ErrInvalid) {
		t.Errorf("bad image err = %v, want ErrInvalid", err)
	}
	negPriority := testPod("web-3")
	negPriority.Spec.Priority = -1
	if err := c.Create(negPriority); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative priority err = %v, want ErrInvalid", err)
	}
	reqOverLimit := testPod("web-4")
	reqOverLimit.Spec.Containers[0].RequestsMilliCPU = 500
	reqOverLimit.Spec.Containers[0].LimitsMilliCPU = 100
	if err := c.Create(reqOverLimit); !errors.Is(err, ErrInvalid) {
		t.Errorf("request>limit err = %v, want ErrInvalid", err)
	}
}

func TestValidationSelectorTemplateMismatch(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("kbench")
	loop.RunUntil(time.Millisecond)
	rs := &spec.ReplicaSet{
		Metadata: spec.ObjectMeta{Name: "web-rs", Namespace: spec.DefaultNamespace},
		Spec: spec.ReplicaSetSpec{
			Replicas: 2,
			Selector: spec.LabelSelector{MatchLabels: map[string]string{"app": "web"}},
			Template: spec.PodTemplate{
				Labels: map[string]string{"app": "OTHER"},
				Spec:   testPod("x").Spec,
			},
		},
	}
	if err := c.Create(rs); !errors.Is(err, ErrInvalid) {
		t.Fatalf("selector/template mismatch err = %v, want ErrInvalid", err)
	}
}

func TestValidationNamespaceMatchesRequest(t *testing.T) {
	// A corrupted namespace in the body is detected because it no longer
	// matches the request URL — but only on the component→apiserver channel.
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("kcm")
	loop.RunUntil(time.Millisecond)
	srv.SetRequestHook(func(m *Message) Action {
		if m.Kind == spec.KindPod {
			obj := spec.New(m.Kind)
			if err := codecUnmarshal(m.Encoded(), obj); err != nil {
				return Pass
			}
			obj.Meta().Namespace = "other-ns"
			m.Data = mustMarshal(obj)
			m.Tampered = true
		}
		return Pass
	})
	err := c.Create(testPod("web-1"))
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("tampered namespace err = %v, want ErrInvalid", err)
	}
	if srv.Audit().TamperedErrored() != 1 {
		t.Fatal("tampered error not audited")
	}
}

func TestStoreWriteHookBypassesValidation(t *testing.T) {
	// The same corruption on the apiserver→store channel is NOT detected:
	// the corrupted object becomes the cluster state.
	loop, st, srv := newTestServer(t)
	c := srv.ClientFor("kcm")
	srv.SetStoreWriteHook(func(m *Message) Action {
		if m.Kind == spec.KindPod && m.Verb == VerbCreate {
			obj := spec.New(m.Kind)
			if err := codecUnmarshal(m.Encoded(), obj); err != nil {
				return Pass
			}
			obj.Meta().Labels["app"] = "corrupted"
			m.Data = mustMarshal(obj)
			m.Tampered = true
		}
		return Pass
	})
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatalf("Create with store-channel tampering err = %v, want nil", err)
	}
	loop.RunUntil(time.Second)
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	if obj.Meta().Labels["app"] != "corrupted" {
		t.Fatal("corrupted value did not reach the cluster state")
	}
	kv, ok := st.Get(spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1"))
	if !ok || len(kv.Value) == 0 {
		t.Fatal("store missing the object")
	}
}

func TestDroppedStoreWriteReportsSuccess(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("kcm")
	srv.SetStoreWriteHook(func(m *Message) Action { return Drop })
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatalf("dropped create returned %v, want nil (silent drop)", err)
	}
	loop.RunUntil(time.Second)
	if _, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("dropped write still materialized")
	}
}

func TestUndecodableResourceIsDeleted(t *testing.T) {
	loop, st, srv := newTestServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
	// Corrupt the stored bytes so they no longer decode, then write them
	// back through the store so the watch path sees them.
	kv, _ := st.Get(key)
	if _, err := st.Put(key, spec.KindPod, []byte{0x80}); err != nil {
		t.Fatal(err)
	}
	_ = kv
	loop.RunUntil(2 * time.Second)
	if _, ok := st.Get(key); ok {
		t.Fatal("undecodable resource was not deleted (§II-D strategy)")
	}
}

func TestRestartRebuildsCacheFromStore(t *testing.T) {
	loop, st, srv := newTestServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
	// At-rest corruption: cache still serves the old value.
	st.CorruptAtRest(key, func(b []byte) []byte {
		obj := spec.New(spec.KindPod)
		if err := codecUnmarshal(b, obj); err != nil {
			return b
		}
		obj.Meta().Labels["app"] = "at-rest"
		return mustMarshal(obj)
	})
	obj, _ := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if obj.Meta().Labels["app"] != "web" {
		t.Fatal("at-rest corruption visible before restart (cache should mask it)")
	}
	srv.Restart()
	loop.RunUntil(2 * time.Second)
	obj, _ = c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if obj.Meta().Labels["app"] != "at-rest" {
		t.Fatal("restart did not pick up at-rest corruption")
	}
}

func TestAuditCountsUserErrors(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("kbench")
	loop.RunUntil(time.Millisecond)
	if err := c.Create(testPod("")); err == nil {
		t.Fatal("expected validation error")
	}
	if got := srv.Audit().ErrorsBy("kbench"); got != 1 {
		t.Fatalf("ErrorsBy(kbench) = %d, want 1", got)
	}
	if err := c.Create(testPod("ok-pod")); err != nil {
		t.Fatal(err)
	}
	if got := srv.Audit().ErrorsBy("kbench"); got != 1 {
		t.Fatalf("ErrorsBy(kbench) = %d after a success, want 1", got)
	}
}

func TestAccessHookSeesReads(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	accessed := make(map[string]int)
	srv.SetAccessHook(func(key string) { accessed[key]++ })
	if _, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1"); err != nil {
		t.Fatal(err)
	}
	c.List(spec.KindPod, spec.DefaultNamespace)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
	if accessed[key] != 2 {
		t.Fatalf("access hook fired %d times, want 2", accessed[key])
	}
}

func TestClusterScopedRejectsNamespace(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("test")
	loop.RunUntil(time.Millisecond)
	n := &spec.Node{Metadata: spec.ObjectMeta{Name: "node-1", Namespace: "default"}}
	if err := c.Create(n); !errors.Is(err, ErrInvalid) {
		t.Fatalf("namespaced node err = %v, want ErrInvalid", err)
	}
}

// validNameChars reports whether every byte of s could appear in a DNS-1123
// name (used by tests exploring the bit-flip space).
func validNameChars(s string) bool {
	return matchDNS1123(strings.ToLower(s))
}

func TestValidNameCharsHelper(t *testing.T) {
	if !validNameChars("web-1") {
		t.Fatal("web-1 should be valid")
	}
	if validNameChars("web_1") {
		t.Fatal("web_1 should be invalid")
	}
}

// The messages a request shows its hooks are two scratch values of the
// server's: nothing of a request is left in them once it has returned, on the
// success path, an error path and a dropped write alike, and a request issued
// from inside a hook gets a pair of its own instead of overwriting the outer
// one's.
func TestRequestMessagesAreScratch(t *testing.T) {
	loop, st, srv := newTestServer(t)
	c := srv.ClientFor("kcm")
	idle := func(step string) {
		t.Helper()
		for name, m := range map[string]*Message{"reqMsg": &srv.reqMsg, "storeMsg": &srv.storeMsg} {
			if m.Verb != 0 || m.Kind != "" || m.Name != "" || m.Source != "" || m.Data != nil || m.Tampered {
				t.Fatalf("%s: %s = %+v after the request returned, want zero", step, name, *m)
			}
		}
	}

	var outerName, outerSource string
	var outerData []byte
	var innerErr error
	srv.SetStoreWriteHook(func(m *Message) Action {
		if m.Name != "outer" {
			return Pass
		}
		if m != &srv.storeMsg {
			t.Errorf("the outermost request was shown %p, want the server's scratch message", m)
		}
		before := append([]byte(nil), m.Encoded()...)
		innerErr = c.Create(testPod("inner")) // a request nested in this one
		outerName, outerSource, outerData = m.Name, m.Source, m.Data
		if string(before) != string(m.Data) {
			t.Error("the nested request rewrote the outer request's bytes")
		}
		return Pass
	})
	if err := c.Create(testPod("outer")); err != nil {
		t.Fatal(err)
	}
	if innerErr != nil {
		t.Fatalf("nested create: %v", innerErr)
	}
	if outerName != "outer" || outerSource != "apiserver" || len(outerData) == 0 {
		t.Fatalf("after the nested request the hook read name %q, source %q, %d bytes", outerName, outerSource, len(outerData))
	}
	idle("nested create")
	loop.RunUntil(time.Second)
	for _, name := range []string{"outer", "inner"} {
		kv, ok := st.Get(spec.Key(spec.KindPod, spec.DefaultNamespace, name))
		if !ok {
			t.Fatalf("pod %s not stored", name)
		}
		got := &spec.Pod{}
		if err := codecUnmarshal(kv.Bytes(), got); err != nil || got.Metadata.Name != name {
			t.Fatalf("stored pod %s decodes to %q, %v", name, got.Metadata.Name, err)
		}
	}

	if err := c.Create(testPod("outer")); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	idle("refused create")
	srv.SetStoreWriteHook(func(*Message) Action { return Drop })
	if err := c.Delete(spec.KindPod, spec.DefaultNamespace, "inner"); err != nil {
		t.Fatal(err)
	}
	idle("dropped delete")
	srv.SetStoreWriteHook(nil)
	srv.SetRequestHook(func(m *Message) Action {
		if m != &srv.reqMsg {
			t.Errorf("the request hook was shown %p, want the server's scratch message", m)
		}
		return Pass
	})
	if err := c.Create(testPod("wired")); err != nil {
		t.Fatal(err)
	}
	idle("create over the request wire")
}

// A write the store refuses fails with ErrUnavailable wrapping the store's
// sentinel, with the text fmt.Errorf("%w: %w") gives it, and the refusal
// allocates nothing: a runaway that has filled the store is refused on every
// sync. The client's own request object aside, each server step that turns a
// refusal into an error (apply's read, persistWrite, persistDelete) is timed
// on its own.
func TestRefusedWriteAllocatesNothing(t *testing.T) {
	loop := sim.NewLoop(1)
	st := store.NewReplicated(loop, 3, &store.Options{QuotaBytes: 1, MaxValueBytes: 1 << 10})
	srv := New(loop, st, nil)
	c := srv.ClientFor("issuer")
	if err := c.Create(testPod("a")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "a")
	pod := testPod("a")
	// big encodes to more than the store's 1 KiB value limit, which the store
	// checks before its quota.
	big := func(name string) *spec.Pod {
		p := testPod(name)
		p.Metadata.Annotations = map[string]string{"note": strings.Repeat("x", 2<<10)}
		return p
	}
	bigPod := big("a")
	for _, tc := range []struct {
		cause  error
		setup  func()
		write  func() error // through the client
		refuse func() error // the server step that meets the refusal
	}{
		{store.ErrTooLarge, func() {},
			func() error { return c.Create(big("b")) },
			func() error { return srv.persistWrite(VerbUpdate, &srv.reqMsg, bigPod, key) }},
		{store.ErrNoSpace, func() {},
			func() error { return c.Create(testPod("b")) },
			func() error { return srv.persistWrite(VerbUpdate, &srv.reqMsg, pod, key) }},
		{store.ErrNoQuorum, func() { st.Partition([]int{0}, []int{1, 2}) },
			func() error { return c.Delete(spec.KindPod, spec.DefaultNamespace, "a") },
			func() error { return srv.persistDelete(&srv.reqMsg, key) }},
		{store.ErrReplicaDown, func() { st.DropReplica(0) },
			func() error { return c.Delete(spec.KindPod, spec.DefaultNamespace, "a") },
			func() error { return srv.apply(VerbDelete, &srv.reqMsg, pod) }},
	} {
		tc.setup()
		for _, err := range []error{tc.write(), tc.refuse()} {
			if !errors.Is(err, ErrUnavailable) || !errors.Is(err, tc.cause) {
				t.Fatalf("%v: the write returned %v, want ErrUnavailable wrapping it", tc.cause, err)
			}
			if want := fmt.Errorf("%w: %w", ErrUnavailable, tc.cause).Error(); err.Error() != want {
				t.Errorf("%v: the error reads %q, want %q", tc.cause, err, want)
			}
		}
		if n := testing.AllocsPerRun(100, func() { _ = tc.refuse() }); n != 0 {
			t.Errorf("%v: a refused write allocates %v times", tc.cause, n)
		}
	}
}
