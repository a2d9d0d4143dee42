package inject

import (
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

func setup(t *testing.T) (*sim.Loop, *apiserver.Server, *Injector) {
	t.Helper()
	loop := sim.NewLoop(1)
	st := store.NewReplicated(loop, 1, nil)
	srv := apiserver.New(loop, st, nil)
	j := New(loop)
	j.AttachTo(srv)
	return loop, srv, j
}

func pod(name string) *spec.Pod {
	return &spec.Pod{
		Metadata: spec.ObjectMeta{
			Name: name, Namespace: spec.DefaultNamespace,
			Labels: map[string]string{"app": "web"},
		},
		Spec: spec.PodSpec{
			Containers: []spec.Container{{
				Name: "c", Image: "registry.local/web:1", Command: []string{"serve"},
				RequestsMilliCPU: 100, RequestsMemMB: 64, Port: 8080,
			}},
			Priority: 16,
		},
	}
}

func TestBitFlipIntField(t *testing.T) {
	loop, srv, j := setup(t)
	c := srv.ClientFor("kcm")
	j.Arm(Injection{
		Channel: ChannelStore, Kind: spec.KindPod,
		FieldPath: "spec.priority", Type: BitFlip, Bit: 4, Occurrence: 1,
	})
	if err := c.Create(pod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	rep := j.Report()
	if !rep.Fired {
		t.Fatal("injection did not fire")
	}
	if rep.OldValue.(int64) != 16 || rep.NewValue.(int64) != 0 {
		t.Fatalf("flip 16^(1<<4): old=%v new=%v", rep.OldValue, rep.NewValue)
	}
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*spec.Pod).Spec.Priority; got != 0 {
		t.Fatalf("stored priority = %d, want 0 (corrupted)", got)
	}
}

func TestBitFlipStringField(t *testing.T) {
	loop, srv, j := setup(t)
	c := srv.ClientFor("kcm")
	j.Arm(Injection{
		Channel: ChannelStore, Kind: spec.KindPod,
		FieldPath: "metadata.labels[app]", Type: BitFlip, CharIndex: 0, Occurrence: 1,
	})
	if err := c.Create(pod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	got := obj.(*spec.Pod).Metadata.Labels["app"]
	if got != "`eb" && got == "web" {
		t.Fatalf("label not corrupted: %q", got)
	}
	// 'w' (0x77) with LSB flipped is 'v' (0x76).
	if got != "veb" {
		t.Fatalf("label = %q, want %q", got, "veb")
	}
}

// A flip that names no bit of the value — a bit outside an int64, a negative
// character index — must neither panic nor report an injection that changed
// nothing as fired.
func TestBitFlipOutOfRangeDoesNotFire(t *testing.T) {
	for _, in := range []Injection{
		{FieldPath: "spec.priority", Bit: -3},
		{FieldPath: "spec.priority", Bit: 64},
		{FieldPath: "metadata.labels[app]", CharIndex: -1},
	} {
		loop, srv, j := setup(t)
		in.Channel, in.Kind, in.Type, in.Occurrence = ChannelStore, spec.KindPod, BitFlip, 1
		j.Arm(in)
		if err := srv.ClientFor("kcm").Create(pod("web-1")); err != nil {
			t.Fatal(err)
		}
		loop.RunUntil(time.Second)
		if rep := j.Report(); rep.Fired {
			t.Errorf("%s bit=%d char=%d: fired with %v → %v, want not fired",
				in.FieldPath, in.Bit, in.CharIndex, rep.OldValue, rep.NewValue)
		}
	}
}

func TestBoolInversionAndSetValue(t *testing.T) {
	loop, srv, j := setup(t)
	c := srv.ClientFor("kcm")
	if err := c.Create(pod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)

	j.Arm(Injection{
		Channel: ChannelStore, Kind: spec.KindPod,
		FieldPath: "status.ready", Type: BitFlip, Occurrence: 1,
	})
	obj, _ := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	p := spec.CloneForWriteAs(obj.(*spec.Pod))
	p.Status.Ready = true
	if err := c.UpdateStatus(p); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(2 * time.Second)
	obj, _ = c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if obj.(*spec.Pod).Status.Ready {
		t.Fatal("bool inversion did not invert ready=true to false")
	}

	j.Arm(Injection{
		Channel: ChannelStore, Kind: spec.KindPod,
		FieldPath: "spec.containers[0].image", Type: SetValue, Value: "", Occurrence: 1,
	})
	obj, _ = c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	p = spec.CloneForWriteAs(obj.(*spec.Pod))
	p.Metadata.Labels["touch"] = "1"
	if err := c.Update(p); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(3 * time.Second)
	obj, _ = c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if obj.(*spec.Pod).Spec.Containers[0].Image != "" {
		t.Fatal("value-set did not empty the image")
	}
}

func TestOccurrenceIndexCounting(t *testing.T) {
	loop, srv, j := setup(t)
	c := srv.ClientFor("kcm")
	j.Arm(Injection{
		Channel: ChannelStore, Kind: spec.KindPod,
		FieldPath: "metadata.labels[app]", Type: SetValue, Value: "corrupted", Occurrence: 3,
	})
	if err := c.Create(pod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	for i := 0; i < 2; i++ {
		obj, _ := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
		p := spec.CloneForWriteAs(obj.(*spec.Pod))
		p.Metadata.Annotations = map[string]string{"rev": string(rune('a' + i))}
		if err := c.Update(p); err != nil {
			t.Fatal(err)
		}
		loop.RunUntil(loop.Now() + time.Second)
	}
	rep := j.Report()
	if !rep.Fired {
		t.Fatal("occurrence-3 injection did not fire on the 3rd message")
	}
	obj, _ := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if obj.(*spec.Pod).Metadata.Labels["app"] != "corrupted" {
		t.Fatal("3rd-occurrence injection not visible in state")
	}
}

func TestOccurrenceCountsPerInstance(t *testing.T) {
	loop, srv, j := setup(t)
	c := srv.ClientFor("kcm")
	j.Arm(Injection{
		Channel: ChannelStore, Kind: spec.KindPod,
		FieldPath: "metadata.labels[app]", Type: SetValue, Value: "x", Occurrence: 2,
	})
	// Two different instances, one message each: occurrence 2 never reached.
	if err := c.Create(pod("web-1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Create(pod("web-2")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	if j.Report().Fired {
		t.Fatal("occurrence counter leaked across instances")
	}
}

func TestDropMessage(t *testing.T) {
	loop, srv, j := setup(t)
	c := srv.ClientFor("kcm")
	j.Arm(Injection{Channel: ChannelStore, Kind: spec.KindPod, Type: DropMessage, Occurrence: 1})
	if err := c.Create(pod("web-1")); err != nil {
		t.Fatalf("dropped create returned error %v (must look successful)", err)
	}
	loop.RunUntil(time.Second)
	if !j.Report().Fired {
		t.Fatal("drop did not fire")
	}
	if _, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1"); err == nil {
		t.Fatal("dropped write reached the store")
	}
}

func TestProtoByteFlip(t *testing.T) {
	// Across seeds, byte flips must either corrupt the stored object
	// (undecodable → deleted) or leave it decodable-but-possibly-wrong;
	// never an injector error.
	decodable, deleted := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		loop := sim.NewLoop(seed)
		st := store.NewReplicated(loop, 1, nil)
		srv := apiserver.New(loop, st, nil)
		j := New(loop)
		j.AttachTo(srv)
		c := srv.ClientFor("kcm")
		j.Arm(Injection{Channel: ChannelStore, Kind: spec.KindPod, Type: FlipProtoByte, Occurrence: 1})
		if err := c.Create(pod("web-1")); err != nil {
			t.Fatal(err)
		}
		loop.RunUntil(2 * time.Second)
		if !j.Report().Fired {
			t.Fatal("proto-byte injection did not fire")
		}
		if _, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1"); err == nil {
			decodable++
		} else {
			deleted++
		}
	}
	if decodable == 0 || deleted == 0 {
		t.Fatalf("proto flips: decodable=%d deleted=%d; want both behaviours", decodable, deleted)
	}
}

func TestRequestChannelWithSourceFilter(t *testing.T) {
	loop, srv, j := setup(t)
	kcm := srv.ClientFor("kcm")
	kubelet := srv.ClientFor("kubelet-worker-0")
	j.Arm(Injection{
		Channel: ChannelRequest, Kind: spec.KindPod, SourcePrefix: "kubelet-",
		FieldPath: "metadata.labels[app]", Type: SetValue, Value: "evil", Occurrence: 1,
	})
	// kcm's message must pass untouched.
	if err := kcm.Create(pod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	if j.Report().Fired {
		t.Fatal("injection fired for non-matching source")
	}
	if err := kubelet.Create(pod("web-2")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(2 * time.Second)
	if !j.Report().Fired {
		t.Fatal("injection did not fire for matching source")
	}
	obj, _ := kcm.Get(spec.KindPod, spec.DefaultNamespace, "web-2")
	if obj.(*spec.Pod).Metadata.Labels["app"] != "evil" {
		t.Fatal("request-channel tampering did not propagate (valid value must pass validation)")
	}
}

func TestSingleInjectionPerArm(t *testing.T) {
	loop, srv, j := setup(t)
	c := srv.ClientFor("kcm")
	j.Arm(Injection{
		Channel: ChannelStore, Kind: spec.KindPod,
		FieldPath: "metadata.labels[app]", Type: SetValue, Value: "bad", Occurrence: 1,
	})
	if err := c.Create(pod("web-1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Create(pod("web-2")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	obj, _ := c.Get(spec.KindPod, spec.DefaultNamespace, "web-2")
	if obj.(*spec.Pod).Metadata.Labels["app"] != "web" {
		t.Fatal("second instance was also injected; exactly one fault per experiment")
	}
}

func TestActivationTracking(t *testing.T) {
	loop, srv, j := setup(t)
	c := srv.ClientFor("kcm")
	j.Arm(Injection{
		Channel: ChannelStore, Kind: spec.KindPod,
		FieldPath: "metadata.labels[app]", Type: SetValue, Value: "bad", Occurrence: 1,
	})
	if err := c.Create(pod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	// The watch dispatch of the write itself already touches the key, so
	// the injection should be activated by now.
	if !j.Report().Activated {
		if _, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1"); err != nil {
			t.Fatal(err)
		}
		if !j.Report().Activated {
			t.Fatal("activation not detected after read")
		}
	}
}

func TestFieldPathMissingDoesNotConsumeOccurrence(t *testing.T) {
	loop, srv, j := setup(t)
	c := srv.ClientFor("kcm")
	j.Arm(Injection{
		Channel: ChannelStore, Kind: spec.KindPod,
		FieldPath: "spec.containers[3].image", // index out of range for these pods
		Type:      BitFlip, Occurrence: 1,
	})
	if err := c.Create(pod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	if j.Report().Fired {
		t.Fatal("fired on a message without the target field")
	}
}

func TestRecorderInventoriesFields(t *testing.T) {
	loop, srv, _ := setup(t)
	rec := NewRecorder()
	srv.SetStoreWriteHook(rec.Hook())
	c := srv.ClientFor("kcm")
	if err := c.Create(pod("web-1")); err != nil {
		t.Fatal(err)
	}
	svc := &spec.Service{
		Metadata: spec.ObjectMeta{Name: "web", Namespace: spec.DefaultNamespace},
		Spec: spec.ServiceSpec{
			Selector: map[string]string{"app": "web"},
			Ports:    []spec.ServicePort{{Port: 80, TargetPort: 8080}},
		},
	}
	if err := c.Create(svc); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)

	fields := rec.Fields()
	want := map[string]bool{
		"Pod\x00metadata.name":                false,
		"Pod\x00metadata.labels[app]":         false,
		"Pod\x00spec.containers[0].image":     false,
		"Service\x00spec.selector[app]":       false,
		"Service\x00spec.ports[0].targetPort": false,
		"Service\x00spec.clusterIP":           false,
	}
	for _, f := range fields {
		key := string(f.Kind) + "\x00" + f.Path
		if _, ok := want[key]; ok {
			want[key] = true
		}
		if f.MaxOccurrence < 1 {
			t.Fatalf("field %s has MaxOccurrence %d", f.Path, f.MaxOccurrence)
		}
	}
	for key, seen := range want {
		if !seen {
			t.Errorf("recorder missed field %q", key)
		}
	}
	if rec.MessageCount(spec.KindPod) != 1 || rec.MessageCount(spec.KindService) != 1 {
		t.Fatalf("message counts: pod=%d svc=%d", rec.MessageCount(spec.KindPod), rec.MessageCount(spec.KindService))
	}
}
