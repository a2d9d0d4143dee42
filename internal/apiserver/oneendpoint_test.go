package apiserver

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// api is one way of talking to a server: the server's own request, read and
// watch entry points, or a Client's.
type api struct {
	create, update, updateStatus func(spec.Object) error
	get                          func(kind spec.Kind, namespace, name string) (spec.Object, error)
	list                         func(kind spec.Kind, namespace string) []spec.Object
	watch                        func(kind spec.Kind, fn func(WatchEvent)) (cancel func())
}

func direct(s *Server, identity string) api {
	return api{
		create:       func(o spec.Object) error { return s.handle(identity, VerbCreate, o) },
		update:       func(o spec.Object) error { return s.handle(identity, VerbUpdate, o) },
		updateStatus: func(o spec.Object) error { return s.handle(identity, VerbUpdateStatus, o) },
		get:          s.get,
		list:         s.list,
		watch:        func(kind spec.Kind, fn func(WatchEvent)) func() { return s.watch(kind, nil, fn) },
	}
}

func through(c *Client) api {
	return api{
		create: c.Create, update: c.Update, updateStatus: c.UpdateStatus,
		get: c.Get, list: c.List, watch: c.Watch,
	}
}

// oneEndpointRig is a fresh single server on its own loop, seeded alike for
// every rig.
type oneEndpointRig struct {
	loop *sim.Loop
	srv  *Server
}

func newOneEndpointRig() oneEndpointRig {
	loop := sim.NewLoop(27)
	return oneEndpointRig{loop: loop, srv: New(loop, store.NewReplicated(loop, 1, nil), nil)}
}

// trace is what one run of the script leaves behind.
type trace struct {
	errs   []string
	events []string
	audit  *Audit // a copy of the server's audit counters after the script
	next   int64  // the loop's next random number after the script
}

// script drives a server through a: writes that succeed, collide and
// conflict, reads, a request the request channel drops, a crash and a
// revival, and a watch that is cancelled part-way.
func script(r oneEndpointRig, a api) trace {
	var tr trace
	note := func(err error) { tr.errs = append(tr.errs, fmt.Sprint(err)) }
	cancel := a.watch(spec.KindPod, func(ev WatchEvent) {
		m := ev.Object.Meta()
		tr.events = append(tr.events, fmt.Sprintf("%v %s rv=%d", ev.Type, m.Name, m.ResourceVersion))
	})
	settle := func() { r.loop.RunUntil(r.loop.Now() + time.Second) }

	note(a.create(testPod("a")))
	note(a.create(testPod("a")))
	settle()
	got, err := a.get(spec.KindPod, spec.DefaultNamespace, "a")
	note(err)
	stale := spec.CloneForWriteAs(got.(*spec.Pod))
	stale.Metadata.ResourceVersion++
	note(a.update(stale))
	fresh := spec.CloneForWriteAs(got.(*spec.Pod))
	fresh.Status.Phase = spec.PodRunning
	note(a.updateStatus(fresh))
	tr.errs = append(tr.errs, fmt.Sprint(len(a.list(spec.KindPod, ""))))

	// The request channel loses one write; the next one goes through.
	r.srv.SetRequestHook(func(*Message) Action { return Drop })
	note(a.create(testPod("dropped")))
	r.srv.SetRequestHook(nil)
	note(a.create(testPod("b")))
	settle()

	r.srv.SetDown(true)
	note(a.create(testPod("while-down")))
	_, err = a.get(spec.KindPod, spec.DefaultNamespace, "a")
	note(err)
	tr.errs = append(tr.errs, fmt.Sprint(len(a.list(spec.KindPod, ""))))
	r.srv.SetDown(false)
	settle()

	cancel()
	note(a.create(testPod("after-cancel")))
	settle()
	tr.audit = r.srv.Audit().Snapshot()
	tr.next = r.loop.Rand().Int63()
	return tr
}

// TestOneEndpointSetIsAServer holds the one-endpoint rule: a client of a
// one-member endpoint set — a single control plane's, or one a co-located
// manager or scheduler is pinned with — is its server. The same script driven
// through such a client and against the server itself returns the same errors,
// leaves the same audit counts, delivers the same events and leaves the loop's
// random stream where it was; so no request is retried or skipped, and no
// backoff jitter is drawn, when there is nowhere to fail over to. And the
// client costs nothing per request, and per watch nothing the server's own
// registration does not.
func TestOneEndpointSetIsAServer(t *testing.T) {
	r := newOneEndpointRig()
	want := script(r, direct(r.srv, "user"))

	r = newOneEndpointRig()
	eps := NewEndpoints(r.loop, r.srv)
	got := script(r, through(eps.ClientFor("user")))

	if !reflect.DeepEqual(got.errs, want.errs) {
		t.Errorf("errors through a one-endpoint client:\n got  %q\n want %q (the server's own)", got.errs, want.errs)
	}
	// Errors per identity and the five counters: the client neither hides a
	// failed request from the audit nor counts one twice.
	if want.audit.ErrorsBy("user") == 0 {
		t.Fatalf("the script's failed requests left ErrorsBy(user) = 0")
	}
	if !reflect.DeepEqual(got.audit, want.audit) {
		t.Errorf("audit counts through a one-endpoint client:\n got  %+v\n want %+v", *got.audit, *want.audit)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Errorf("watch events through a one-endpoint client:\n got  %q\n want %q", got.events, want.events)
	}
	if got.next != want.next {
		t.Errorf("the loop's next random number is %d after the client's script, %d after the server's: the client drew from it", got.next, want.next)
	}

	// ClientFor keeps nothing for a client with nowhere to go: one allocation,
	// the Client, and no entry in the migration list.
	if n := testing.AllocsPerRun(100, func() { eps.ClientFor("another") }); n != 1 {
		t.Errorf("a one-endpoint ClientFor allocates %v times, want 1", n)
	}
	if n := eps.ClientCount(); n != 0 {
		t.Errorf("the one-endpoint set tracks %d clients, want 0", n)
	}

	// Per operation, the client allocates what the server's entry point does:
	// nothing for a Get, and nothing extra for a List, a status write or a
	// watch registered and cancelled.
	c := eps.ClientFor("user")
	pod, err := c.Get(spec.KindPod, spec.DefaultNamespace, "a")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = c.Get(spec.KindPod, spec.DefaultNamespace, "a") }); n != 0 {
		t.Errorf("a one-endpoint Get allocates %v times, want 0", n)
	}
	donor := spec.CloneForWriteAs(pod.(*spec.Pod))
	for _, op := range []struct {
		name           string
		client, server func()
	}{
		{"List",
			func() { c.List(spec.KindPod, "") },
			func() { r.srv.list(spec.KindPod, "") }},
		{"UpdateStatus",
			func() { _ = c.UpdateStatus(donor) },
			func() { _ = r.srv.handle("user", VerbUpdateStatus, donor) }},
		{"Watch+cancel",
			func() { c.Watch(spec.KindPod, func(WatchEvent) {})() },
			func() { r.srv.watch(spec.KindPod, nil, func(WatchEvent) {})() }},
	} {
		viaClient := testing.AllocsPerRun(100, op.client)
		viaServer := testing.AllocsPerRun(100, op.server)
		if viaClient != viaServer {
			t.Errorf("a one-endpoint %s allocates %v times, the server's own %v", op.name, viaClient, viaServer)
		}
	}
	if err := c.UpdateStatus(donor); err != nil {
		t.Fatalf("the status writes above did not keep the donor current: %v", err)
	}
}
