package apiserver

import (
	"errors"
	"time"

	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// This file implements the client layer. A Client built from an Endpoints set
// knows every apiserver of the set, sticks to one, and on endpoint failure
// retries the request against the others in deterministic index order with
// exponential backoff (jitter drawn from the simulation RNG, so
// bit-reproducibility holds). Its watches migrate with it: reconnecting to a
// new endpoint replays that server's current state as Added events —
// client-go's ListAndWatch on reconnect — and the Reflector resync absorbs
// anything missed in between.
//
// Every client is built this way, whatever the replica count: a single
// control plane is a one-member set, and so is the set each co-located
// manager and scheduler is pinned to (Server.Endpoints). One rule covers
// them: with one endpoint there is nowhere to fail over to. ClientFor then
// keeps no backoff state and does not track the client, do sends the request
// once and returns its error, and watch registers on the server directly —
// exactly what calling the server itself does.

// Failover tuning. Base doubles per consecutive failure of one endpoint up
// to the cap; a quarter of the resulting wait is added as seeded jitter.
const (
	failoverBackoffBase = 250 * time.Millisecond
	failoverBackoffCap  = 8 * time.Second
)

// Endpoints is the client-side view of an apiserver set: every replica of an
// HA control plane, or one server.
type Endpoints struct {
	loop    *sim.Loop
	servers []*Server
	// clients lists every client that can fail over, in creation order, for
	// the eager migration sweep when a server crashes (a broken connection
	// tells the client immediately; it does not wait for its next request to
	// fail). A one-endpoint set lists none.
	clients []*Client
}

// NewEndpoints builds the client factory over the given servers.
func NewEndpoints(loop *sim.Loop, servers ...*Server) *Endpoints {
	return &Endpoints{loop: loop, servers: servers}
}

// ClientFor returns a client bound to a component identity, initially homed
// on endpoint 0 (every replica healthy, every client on the first endpoint —
// byte-for-byte the single-server request stream).
func (e *Endpoints) ClientFor(identity string) *Client {
	c := &Client{srv: e.servers[0], identity: identity, eps: e}
	if len(e.servers) == 1 {
		return c // one endpoint: no backoff to keep, nowhere to migrate
	}
	c.deadline = make([]time.Duration, len(e.servers))
	c.fails = make([]int, len(e.servers))
	e.clients = append(e.clients, c)
	return c
}

// ClientCount returns how many clients that can fail over have been handed
// out (none from a one-endpoint set).
func (e *Endpoints) ClientCount() int { return len(e.clients) }

// Reset forgets every client handed out after the first keep — the ones an
// experiment asked for; the cluster's own components hold the earlier ones for
// life — and re-homes the rest on endpoint 0 with no backoff and no watches,
// as ClientFor built them.
func (e *Endpoints) Reset(keep int) {
	clear(e.clients[keep:])
	e.clients = e.clients[:keep]
	for _, c := range e.clients {
		c.srv, c.cur = e.servers[0], 0
		clear(c.deadline)
		clear(c.fails)
		clear(c.watches)
		c.watches = c.watches[:0]
	}
}

// NoteServerDown migrates every client homed on server i to the next healthy
// endpoint — the eager half of failover, modelling the broken connection a
// crashed apiserver gives its clients. Lazy (per-request) failover covers
// everything else.
func (e *Endpoints) NoteServerDown(i int) {
	for _, c := range e.clients {
		if c.cur == i {
			c.evacuate()
		}
	}
}

// --- failover-aware request path ---------------------------------------------

// isEndpointFailure reports whether err marks the *endpoint* as unusable
// (crashed server, lost store replica, minority partition side) rather than
// the request as invalid. Only these trigger failover.
func isEndpointFailure(err error) bool {
	return errors.Is(err, ErrTimeout) ||
		errors.Is(err, store.ErrReplicaDown) ||
		errors.Is(err, store.ErrNoQuorum)
}

// do runs req against the current endpoint. With one endpoint that is all it
// does: the request's error is the caller's, with no backoff and no RNG draw.
// Otherwise a failed endpoint hands the request on (failover).
func (c *Client) do(req func(*Server) error) error {
	if len(c.eps.servers) == 1 {
		return req(c.srv) // one endpoint: nowhere to fail over to
	}
	return c.failover(req)
}

// failover runs req against the current endpoint, failing over through the
// others in index order. Endpoints in backoff are skipped; a success pins the
// client (and its watches) to the serving endpoint.
func (c *Client) failover(req func(*Server) error) error {
	n := len(c.eps.servers)
	var lastErr error = ErrTimeout
	for attempt := 0; attempt < n; attempt++ {
		idx := (c.cur + attempt) % n
		if c.inBackoff(idx) {
			continue
		}
		srv := c.eps.servers[idx]
		if srv.Down() {
			c.noteFailure(idx)
			continue
		}
		err := req(srv)
		if isEndpointFailure(err) {
			c.noteFailure(idx)
			lastErr = err
			continue
		}
		c.noteSuccess(idx)
		return err
	}
	return lastErr
}

func (c *Client) inBackoff(idx int) bool {
	return c.eps.loop.Now() < c.deadline[idx]
}

// noteFailure backs the endpoint off exponentially with seeded jitter. The
// RNG is only consumed on failure, so fault-free runs draw exactly the same
// random sequence as a single-server cluster.
func (c *Client) noteFailure(idx int) {
	c.fails[idx]++
	back := failoverBackoffBase << (c.fails[idx] - 1)
	if back > failoverBackoffCap || back <= 0 {
		back = failoverBackoffCap
	}
	back += time.Duration(c.eps.loop.Rand().Int63n(int64(back / 4)))
	c.deadline[idx] = c.eps.loop.Now() + back
}

func (c *Client) noteSuccess(idx int) {
	c.fails[idx] = 0
	c.deadline[idx] = 0
	if idx != c.cur {
		c.failTo(idx)
	}
}

// evacuate moves the client off a crashed endpoint to the next one not known
// down, without waiting for a request to fail.
func (c *Client) evacuate() {
	n := len(c.eps.servers)
	for attempt := 1; attempt < n; attempt++ {
		idx := (c.cur + attempt) % n
		if !c.eps.servers[idx].Down() {
			c.failTo(idx)
			return
		}
	}
}

// failTo re-homes the client on endpoint idx and migrates its watches: each
// is cancelled on the old server, re-registered on the new one — a scoped pod
// watch with its scope, whose claims the new server indexes — and then fed the
// new server's current state as Added events: the re-list half of
// ListAndWatch. Consumers are built for replayed Addeds (idempotent handlers,
// resync-repairing reflectors), exactly as across a server restart.
func (c *Client) failTo(idx int) {
	c.cur = idx
	srv := c.eps.servers[idx]
	c.srv = srv
	if len(c.watches) == 0 {
		return
	}
	for _, w := range c.watches {
		w.cancel()
		w.cancel = srv.watch(w.kind, w.scope, w.fn)
	}
	for _, w := range c.watches {
		w.replay(srv)
	}
}

// clientWatch is one logical watch subscription that survives failover.
type clientWatch struct {
	kind   spec.Kind
	scope  *PodScope // nil for an unscoped watch
	fn     func(WatchEvent)
	cancel func()
}

// replay feeds the server's current state for the watched kind to the
// subscriber as synthetic Added events, in store-key order — to a scoped
// watch, the pods in scope as each is reached (an adopted pod is claimed by
// the time a later one is tested).
func (w *clientWatch) replay(srv *Server) {
	for _, obj := range srv.list(w.kind, "") {
		if w.scope != nil && !w.scope.wants(obj.(*spec.Pod)) {
			continue
		}
		w.fn(WatchEvent{Type: Added, Kind: w.kind, Object: obj})
	}
}

// watch registers fn for the events of kind, in scope only when one is given.
// With one endpoint it registers on the server directly: there is no other
// server for the subscription to move to. Otherwise the subscription is a
// clientWatch, which failTo moves with the client.
func (c *Client) watch(kind spec.Kind, scope *PodScope, fn func(WatchEvent)) (cancel func()) {
	if len(c.eps.servers) == 1 {
		return c.srv.watch(kind, scope, fn) // one endpoint: nowhere to migrate
	}
	w := &clientWatch{kind: kind, scope: scope, fn: fn}
	w.cancel = c.srv.watch(kind, scope, fn)
	c.watches = append(c.watches, w)
	return func() {
		w.cancel()
		for i, cw := range c.watches {
			if cw == w {
				c.watches = append(c.watches[:i], c.watches[i+1:]...)
				break
			}
		}
	}
}
