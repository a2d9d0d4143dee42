package inject

import (
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// The watch channel is the third injectable surface: dropping a notification
// starves subscribers without touching the agreed cluster state, and an
// informer-style view recovers through its resync re-list.
func TestWatchChannelDropAndReflectorRecovery(t *testing.T) {
	loop, srv, j := setup(t)
	c := srv.ClientFor("kcm")
	view := apiserver.NewReflector(loop, c, 2*time.Second, nil, spec.KindPod)
	view.Start()

	j.Arm(Injection{
		Channel: ChannelWatch, Kind: spec.KindPod,
		Type: DropMessage, Occurrence: 1,
	})

	if err := c.Create(pod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)

	rep := j.Report()
	if !rep.Fired {
		t.Fatal("watch-channel drop did not fire")
	}
	if rep.Instance != spec.DefaultNamespace+"/web-1" {
		t.Fatalf("fired on %q", rep.Instance)
	}
	// The store and cache keep the pod; only the notification was lost.
	if _, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1"); err != nil {
		t.Fatalf("server lost the object: %v", err)
	}
	if _, ok := view.Get(spec.KindPod, spec.DefaultNamespace, "web-1"); ok {
		t.Fatal("subscriber received the dropped notification")
	}

	// The resync re-list recovers the view — drop degrades to bounded delay.
	loop.RunUntil(loop.Now() + 3*time.Second)
	if _, ok := view.Get(spec.KindPod, spec.DefaultNamespace, "web-1"); !ok {
		t.Fatal("view did not recover via resync")
	}
	// The recovery re-list touches the injected key: activation accounting
	// holds on the watch channel too.
	if !j.Report().Activated {
		t.Fatal("recovery re-list did not activate the injection")
	}
}

// Field corruption on the watch channel must reach subscribers only: the
// store-persisted object stays clean, so per-experiment state (and every
// later re-list) observes the truth.
func TestWatchChannelFieldCorruptionIsSubscriberLocal(t *testing.T) {
	loop, srv, j := setup(t)
	c := srv.ClientFor("kcm")
	var seen []*spec.Pod
	view := apiserver.NewReflector(loop, c, 0, func(ev apiserver.WatchEvent) {
		seen = append(seen, ev.Object.(*spec.Pod))
	}, spec.KindPod)
	view.Start()

	j.Arm(Injection{
		Channel: ChannelWatch, Kind: spec.KindPod,
		FieldPath: "spec.nodeName", Type: SetValue, Value: "ghost", Occurrence: 1,
	})
	if err := c.Create(pod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)

	rep := j.Report()
	if !rep.Fired {
		t.Fatal("watch-channel field fault did not fire")
	}
	if len(seen) == 0 || seen[0].Spec.NodeName != "ghost" {
		t.Fatalf("subscriber saw %+v, want tampered nodeName", seen)
	}
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil || obj.(*spec.Pod).Spec.NodeName != "" {
		t.Fatal("watch-channel tampering reached the server state")
	}
}
