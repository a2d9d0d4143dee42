package apiserver

import (
	"time"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// Client is a component's handle on the API server, carrying the component's
// identity so that the audit counts each failed request against the
// component that issued it.
//
// Reads follow the sealed-read contract: Get, List and Range hand out the server's
// sealed cache instances with zero copies. Callers may read and retain them
// freely — sealed objects never change — but must obtain a private copy via
// spec.CloneForWrite before mutating. Create and Update hand their argument
// over to the server (see Create); UpdateStatus only reads its argument, and
// the caller keeps it.
// Every client comes from an Endpoints set and knows each apiserver in it: in
// an HA control plane it fails over between them; with one endpoint it sends
// every request once to that server. See endpoints.go.
type Client struct {
	srv      *Server // the endpoint the client is homed on
	identity string

	// Failover state, empty with one endpoint: cur is the index of srv in the
	// set, deadline/fails the per-endpoint backoff state, watches the
	// subscriptions that migrate on failover.
	eps      *Endpoints
	cur      int
	deadline []time.Duration
	fails    []int
	watches  []*clientWatch
}

// Create persists a new object. The argument is handed over: after the call
// it belongs to the server, which stamps and admits it in place and seals it
// on commit, so the caller must neither read nor write it again — to write
// the same object twice, build a new one or pass it through
// spec.CloneForWrite. A sealed argument is copied first. A create that fails
// carries none of the identities a server drew for it, so failover resends
// it as it was passed in.
func (c *Client) Create(obj spec.Object) error {
	return c.do(func(srv *Server) error { return srv.handle(c.identity, VerbCreate, obj) })
}

// Update replaces an existing object (spec + metadata); its resourceVersion
// must match the current one. The argument is handed over, as with Create.
func (c *Client) Update(obj spec.Object) error {
	return c.do(func(srv *Server) error { return srv.handle(c.identity, VerbUpdate, obj) })
}

// UpdateStatus updates only the status subresource of an existing object.
func (c *Client) UpdateStatus(obj spec.Object) error {
	return c.do(func(srv *Server) error { return srv.handle(c.identity, VerbUpdateStatus, obj) })
}

// Delete removes an object.
func (c *Client) Delete(kind spec.Kind, namespace, name string) error {
	obj := spec.New(kind)
	obj.Meta().Namespace = namespace
	obj.Meta().Name = name
	return c.do(func(srv *Server) error { return srv.handle(c.identity, VerbDelete, obj) })
}

// Get fetches one object (served from the watch cache, like a real apiserver
// read) as a sealed reference: shared, immutable, free to retain. To modify
// the result, pass it through spec.CloneForWrite first.
func (c *Client) Get(kind spec.Kind, namespace, name string) (spec.Object, error) {
	var obj spec.Object
	err := c.do(func(srv *Server) error {
		var err error
		obj, err = srv.get(kind, namespace, name)
		return err
	})
	return obj, err
}

// List returns all objects of a kind, optionally restricted to a namespace
// (empty namespace means all), as sealed references under the same contract
// as Get.
func (c *Client) List(kind spec.Kind, namespace string) []spec.Object {
	var out []spec.Object
	_ = c.do(func(srv *Server) error {
		out = srv.list(kind, namespace)
		return nil
	})
	return out
}

// Range calls fn on each object List(kind, namespace) would return, in the
// same order, stopping early when fn returns false. It reads the server's
// index in place instead of copying it, and calls the access hook for the
// whole range before the first visit, as List does; a down server visits
// nothing. fn must not write through the server — no Create, Update,
// UpdateStatus or Delete on any client of it — since a write moves the index
// being walked: a caller that acts on what it sees collects the actions and
// takes them after Range returns.
func (c *Client) Range(kind spec.Kind, namespace string, fn func(spec.Object) bool) {
	_ = c.do(func(srv *Server) error {
		srv.rangeKind(kind, namespace, fn)
		return nil
	})
}

// Watch subscribes to change events for a kind. Event objects are sealed
// references shared across all watchers. The cancel function detaches the
// watcher.
func (c *Client) Watch(kind spec.Kind, fn func(WatchEvent)) (cancel func()) {
	return c.watch(kind, nil, fn)
}

// WatchPods subscribes to the pod events in scope: those whose object is bound
// to scope.Node or carries a UID the scope has claimed (see PodScope) — what a
// kubelet can act on, instead of every pod event in the cluster. Otherwise it
// is Watch(spec.KindPod, fn): same event objects, same delivery order among
// the receivers, same cancel.
func (c *Client) WatchPods(scope *PodScope, fn func(WatchEvent)) (cancel func()) {
	return c.watch(spec.KindPod, scope, fn)
}

// NoteAccess records a read of the given store key with the server's access
// hook, exactly as a successful Get of that key would. Components that serve
// reads from a watch-maintained local view (see Reflector) call it so the
// injection framework's activation accounting — "the injected resource
// instance is requested after the injection" — keeps the same per-request
// granularity it had when every read hit the server.
func (c *Client) NoteAccess(key string) {
	c.srv.noteAccess(key)
}
