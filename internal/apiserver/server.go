// Package apiserver implements the API server: the single component that
// talks to the data store, validates and admits requests from every other
// component, maintains the watch cache, and fans out change notifications.
// It also provides Reflector, the informer-style client-side view that the
// controllers, the scheduler, and the workload driver consume instead of
// polling re-lists.
//
// It hosts the three communication channels Mutiny injects into:
//
//   - the apiserver→store channel (§IV-A), where a tampered transaction
//     lands in the store unvalidated (emulating faults that originate in
//     the apiserver or propagate undetected),
//   - the component→apiserver channel (§IV-A), where tampered requests face
//     the validation layer, used by the propagation experiments of §V-C4,
//     and
//   - the apiserver→component watch channel, where dropped or corrupted
//     notifications starve or mislead the informer views without touching
//     the agreed cluster state — the watch-staleness fault family the
//     informer architecture implies.
package apiserver

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// API error values, matched by components to decide on retries. The audit
// counts every one a request returns (Figure 7's user errors).
var (
	ErrNotFound      = errors.New("apiserver: not found")
	ErrAlreadyExists = errors.New("apiserver: already exists")
	ErrConflict      = errors.New("apiserver: resource version conflict")
	ErrInvalid       = errors.New("apiserver: validation failed")
	ErrUnavailable   = errors.New("apiserver: store unavailable")
	ErrTimeout       = errors.New("apiserver: request timed out")
	ErrBadRequest    = errors.New("apiserver: malformed request")
)

// unavailableError is ErrUnavailable wrapping the error a store refused a
// write with, as fmt.Errorf("%w: %w", ErrUnavailable, cause) builds it: the
// same text, and both errors on the errors.Is chain.
type unavailableError struct {
	msg  string
	errs []error // ErrUnavailable, cause
}

func (e *unavailableError) Error() string   { return e.msg }
func (e *unavailableError) Unwrap() []error { return e.errs }

// storeRefusals hold one unavailableError per sentinel the store refuses a
// write with, built once, so a refused write allocates nothing.
var storeRefusals = func() []*unavailableError {
	var out []*unavailableError
	for _, cause := range []error{store.ErrReplicaDown, store.ErrNoQuorum, store.ErrNoSpace, store.ErrTooLarge} {
		out = append(out, &unavailableError{
			msg:  ErrUnavailable.Error() + ": " + cause.Error(),
			errs: []error{ErrUnavailable, cause},
		})
	}
	return out
}()

// unavailable wraps the error the store refused a request with in
// ErrUnavailable; failover clients match the cause (store.ErrReplicaDown,
// store.ErrNoQuorum) to retry against another apiserver.
func unavailable(cause error) error {
	for _, e := range storeRefusals {
		if e.errs[1] == cause {
			return e
		}
	}
	return fmt.Errorf("%w: %w", ErrUnavailable, cause)
}

// Verb identifies the operation carried by a channel message.
type Verb int

// Request verbs.
const (
	VerbCreate Verb = iota + 1
	VerbUpdate
	VerbUpdateStatus
	VerbDelete
)

func (v Verb) String() string {
	switch v {
	case VerbCreate:
		return "create"
	case VerbUpdate:
		return "update"
	case VerbUpdateStatus:
		return "update-status"
	case VerbDelete:
		return "delete"
	default:
		return fmt.Sprintf("Verb(%d)", int(v))
	}
}

// Message is one serialized write crossing a channel. Hooks may mutate its
// bytes in place or replace them; identity fields describe the request
// context (the "URL"), which is fixed before any tampering occurs.
type Message struct {
	Verb      Verb
	Kind      spec.Kind
	Namespace string
	Name      string
	Source    string // component identity that issued the request
	// Data is the encoded object, nil for deletes. A hook reads the bytes
	// through Encoded: on the component→apiserver and apiserver→store
	// channels they are made only when a hook asks for them.
	Data []byte
	// Tampered is set by an injection hook when it mutates the message; the
	// audit counts a tampered request as persisted or errored for the
	// propagation experiments (Table VI).
	Tampered bool

	// obj is the object a request or store-channel message carries until
	// Encoded makes Data from it; srv encodes it, and made is the array it
	// encoded into.
	obj  spec.Object
	srv  *Server
	made []byte
}

// Encoded returns the message's bytes, Data, making them first if the message
// carries its object unencoded. Both write channels encode only for a hook
// that asks (the injector asks for the message it fires on, the field guard
// and the recorder for every message they see), and a message no hook changed
// goes on as its object: the request channel applies a private copy of the
// caller's (see handle), the store channel stores the sealed object (see
// persistWrite).
func (m *Message) Encoded() []byte {
	if m.obj != nil && m.Data == nil {
		m.srv.encode(m)
	}
	return m.Data
}

// ownBytes reports whether the message still carries the server's own
// encoding of its object: none made yet, or the very bytes Encoded made.
func (m *Message) ownBytes() bool {
	return len(m.Data) == len(m.made) && arrayOf(m.Data) == arrayOf(m.made)
}

// Action is a hook's verdict on a message.
type Action int

// Hook verdicts.
const (
	// Pass lets the (possibly mutated) message continue.
	Pass Action = iota
	// Drop discards the message; the caller observes success (the paper's
	// message-drop model: "the calling function returns without any error
	// before sending the message").
	Drop
)

// Hook intercepts messages on a channel. The message is the server's own and
// is valid only until the hook returns: a hook reads its fields, reads its
// bytes through Encoded (on the request and store channels Data is nil until
// something asks), and may mutate or replace Data and set Tampered, but must
// not keep the pointer — the request and store channels hand every hook the
// same two scratch values, zeroed when the request ends, and Data may alias a
// buffer that is reused after it. The hooks in the tree (inject.Recorder,
// inject.Injector, guard.Guard) copy what they keep.
type Hook func(*Message) Action

// WatchEventType distinguishes watch notifications.
type WatchEventType int

// Watch event types.
const (
	Added WatchEventType = iota + 1
	Modified
	Deleted
)

func (t WatchEventType) String() string {
	switch t {
	case Added:
		return "ADDED"
	case Modified:
		return "MODIFIED"
	case Deleted:
		return "DELETED"
	default:
		return fmt.Sprintf("WatchEventType(%d)", int(t))
	}
}

// WatchEvent is delivered to component watchers. Object is the *sealed*
// cache instance shared by every watcher and every read of that revision —
// zero copies are made per dispatch. Watchers may read and retain it freely;
// to mutate, they must go through spec.CloneForWrite (the seal-contract
// guard test enforces this).
type WatchEvent struct {
	Type   WatchEventType
	Kind   spec.Kind
	Object spec.Object
}

// Options configure a Server.
type Options struct {
	// CriticalFieldChecksums enables the §VI-B redundancy-code mitigation:
	// the server stamps every write with a checksum over its critical
	// fields (computed before the transaction leaves the server) and
	// deletes objects whose stored critical fields no longer match — so
	// single-bit corruption of a dependency, identity, or networking field
	// is detected at first read-back instead of silently propagating. The
	// paper: "simple data redundancy mechanisms, like redundancy codes on
	// critical fields, can protect the cluster from hardware faults with a
	// negligible overhead (the critical fields are < 10% of total)".
	CriticalFieldChecksums bool
}

// Server is the API server.
type Server struct {
	loop *sim.Loop
	opts Options

	// store is the cluster's data store and origin the replica this server
	// binds to: its reads, writes and watch feed all go through replica
	// origin. A single control plane is origin 0 of a one-member store.
	store  *store.Replicated
	origin int
	// down marks a crashed apiserver replica (FaultAPIServerCrash): requests
	// fail like timeouts, the store watch is detached, and no events fan out
	// until restart.
	down bool

	// uidStride spaces server-assigned UIDs and service IPs so the N servers
	// of a control plane mint disjoint sequences: server origin assigns
	// origin+k·N, the counters start at origin. 1 for a single server — the
	// historical sequence.
	uidStride int64

	// kindIndex is the watch cache: the decoded objects, per kind, in slices
	// sorted by store key, so list — the hottest read (every controller scan,
	// scheduler pass, and collector scrape) — is a binary search plus one
	// contiguous copy. byKey holds the same objects by store key for get: at
	// a thousand keys a bucket search costs several map lookups, and every
	// kubelet gets each of its running pods on every status sync.
	kindIndex map[spec.Kind]*sortedBucket
	byKey     map[string]spec.Object
	// Every registration draws the next sequence number (nextSeq), and
	// delivery is in sequence order — registration order: map iteration would
	// randomize the delivery order of same-tick events across runs, breaking
	// bit-reproducibility. live counts the registrations not yet cancelled.
	nextSeq, live int
	// watcherIdx holds each kind's unscoped watchers, ascending by sequence
	// number. Fan-out walks the event kind's list instead of scanning every
	// registration.
	// Scoped pod watchers (see PodScope) are not in it: byNode and byUID hold
	// them under the node each answers for and under every pod UID each has
	// claimed, and a pod event adds the two lists its object selects to its
	// receivers — the kubelets that can act on it, however many there are. A
	// cancel takes its watcher out of all three at once.
	watcherIdx    map[spec.Kind][]*watcher
	byNode, byUID posIndex
	// fanoutScratch backs the receiver list of the fan-out in progress.
	fanoutScratch []*watcher

	// pending queues each dispatch for fanout, which delivers it to all its
	// receivers in one callback: one loop event per dispatch, in dispatch
	// order, whatever the number of watchers, and no closure.
	pending *sim.Queue[pendingDispatch]

	// decoded is the control plane's decode cache (see decodeCache), shared
	// by every server of it like the audit trail. The counters are this
	// server's own lookups: hits, real decodes, and same-revision byte
	// changes (CorruptAtRest, or a stale array arriving late) seen at lookup.
	decoded        decodeCache
	decodeHits     int64
	decodeMisses   int64
	decodeRewrites int64

	uidCounter int64
	ipCounter  int64

	storeWriteHook Hook
	requestHook    Hook
	// watchHook intercepts the apiserver→component watch channel: every
	// committed change is offered to it once, before the batched fan-out
	// delivers the event to the registered watchers. Drop loses the
	// notification (the cache and store keep the change — only the
	// subscribers go stale until their next resync re-list); a tampered
	// payload is decoded into a private corrupted instance that only the
	// watchers see. Without a hook the fan-out does no per-event encode.
	watchHook  Hook
	accessHook func(key string)

	// audit is the control plane's, shared by every server of it.
	audit *Audit

	// admission is the webhook chain evaluated on every spec-carrying write
	// before persist (nil = no admission configured, zero write-path cost).
	// Like the audit, one chain is shared by every server of a control
	// plane: admission configuration is cluster state.
	admission *AdmissionChain

	// arena is the server's private encoder. A simulated cluster runs
	// single-threaded on one campaign worker goroutine, so server-local is
	// worker-local: every encode on the request, persist, and watch-hook
	// paths uses this arena instead of the process-wide encoder pool, which
	// parallel workers would otherwise contend on.
	arena *codec.Arena

	// reqMsg and storeMsg are the messages of the request in progress on the
	// component→apiserver and apiserver→store channels: every write needs both
	// only to show them to the hooks, so handle fills these two instead of
	// allocating a pair, and zeroes them when it returns. reqData and
	// storeData are the buffers their Data is encoded into when a hook asks,
	// reused by the next request (the store copies what it keeps). A zero
	// reqMsg.Verb means all four are free; a handle entered while they are not
	// takes its own messages and encodes into fresh arrays (see encode).
	reqMsg, storeMsg   Message
	reqData, storeData []byte
	// watchData is the buffer a watch-hook event is encoded into, for as long
	// as the hook and the decode after it run.
	watchData []byte

	cancelStoreWatch func()

	// own is the one-member endpoint set of this server alone: ClientFor's
	// clients, and those of a component pinned to this server (a co-located
	// manager or scheduler), come from it.
	own *Endpoints
}

type watcher struct {
	kind      spec.Kind
	fn        func(WatchEvent)
	scope     *PodScope // nil: every event of kind
	seq       int       // the server's sequence number when it registered
	cancelled bool
}

// bySeq orders watchers by sequence number, for binary searches of the
// ascending lists that index them.
func bySeq(w *watcher, seq int) int { return cmp.Compare(w.seq, seq) }

// pendingDispatch is one watch event queued for batched fan-out: the event
// plus the sequence number the next registration would have drawn at
// dispatch time, so watchers registered between dispatch and delivery do not
// receive it (exactly as under the old per-watcher scheduling, where missing
// the dispatch meant missing the event).
type pendingDispatch struct {
	ev    WatchEvent
	limit int
}

// New creates a lone Server: the replica-0 server of
// NewControlPlane(loop, st, opts, nil), for callers that need one server
// over a one-member store.
func New(loop *sim.Loop, st *store.Replicated, opts *Options) *Server {
	return NewControlPlane(loop, st, opts, nil).Servers[0]
}

// newServer creates the server of cp bound to store replica origin and
// starts its store watch. Every origin serves reads and its watch feed from
// its own replica and writes through it, so a partitioned or lost replica
// degrades exactly the servers bound to it while the survivors keep serving.
func newServer(cp *ControlPlane, st *store.Replicated, origin int, opts *Options) *Server {
	s := &Server{
		loop:       cp.loop,
		store:      st,
		origin:     origin,
		uidStride:  int64(st.Replicas()),
		uidCounter: int64(origin),
		ipCounter:  int64(origin),
		kindIndex:  make(map[spec.Kind]*sortedBucket),
		byKey:      make(map[string]spec.Object),
		byNode:     make(posIndex),
		byUID:      make(posIndex),
		decoded:    cp.decoded,
		audit:      cp.audit,
		admission:  cp.admission,
		arena:      codec.NewArena(),
	}
	s.pending = sim.NewQueue(cp.loop, 0, s.fanout)
	s.own = NewEndpoints(cp.loop, s)
	if opts != nil {
		s.opts = *opts
	}
	s.cancelStoreWatch = s.subscribeStore()
	return s
}

// reset returns the server to the state newServer left it in, keeping the
// memory of its tables: empty watch cache, no watchers, no hooks, counters at
// their residue, up. What survives is wiring, not state: the store binding,
// the stride, the control plane's shared parts (which ControlPlane.Reset
// empties), the encode arena. Every registration counts as cancelled from here
// on, so a late cancel is a no-op. The store must have been Reset first — the
// server re-subscribes to it here, as newServer did — and so must the loop,
// whose Reset drops every queued dispatch.
func (s *Server) reset() {
	s.clearCache()
	s.decodeHits, s.decodeMisses, s.decodeRewrites = 0, 0, 0

	// Every registration, gathered in the fan-out scratch, is cancelled.
	ws := s.fanoutScratch[:0]
	for k, l := range s.watcherIdx {
		ws = append(ws, l...)
		clear(l)
		s.watcherIdx[k] = l[:0]
	}
	for _, p := range s.byNode { // every scoped registration, under its node
		ws = p.appendBelow(ws, s.nextSeq)
	}
	for _, w := range ws {
		w.cancelled = true
		s.detach(w)
	}
	clear(ws)
	s.fanoutScratch = ws[:0]
	clear(s.byNode)
	clear(s.byUID)
	s.nextSeq, s.live = 0, 0

	s.uidCounter, s.ipCounter = int64(s.origin), int64(s.origin)
	s.down = false
	s.storeWriteHook, s.requestHook, s.watchHook, s.accessHook = nil, nil, nil, nil
	s.cancelStoreWatch = s.subscribeStore()
}

// subscribeStore makes the server its own store replica's subscriber.
func (s *Server) subscribeStore() func() {
	return s.store.Subscribe(s.origin, s.onStoreEvent)
}

// SetDown crashes or revives this apiserver replica. While down, requests
// fail like timeouts, reads error, the store watch is detached and no events
// fan out — a dead process. Reviving restarts the server: the watch cache
// rebuilds from its replica and surviving watchers get a re-list.
func (s *Server) SetDown(down bool) {
	if s.down == down {
		return
	}
	s.down = down
	if down {
		if s.cancelStoreWatch != nil {
			s.cancelStoreWatch()
			s.cancelStoreWatch = nil
		}
		return
	}
	s.cancelStoreWatch = s.subscribeStore()
	s.rebuildCache(true)
}

// Down reports whether this apiserver replica is crashed.
func (s *Server) Down() bool { return s.down }

// decodeCache holds, per store key, the sealed decoded form of one stored
// bytes entry's array (an object entry is its own decoded form, and needs no
// cache). A lookup hits only for that very array at the revision the object
// is stamped with: stored arrays are immutable and the codec is a pure
// function of the bytes, so a hit returns exactly what decoding the bytes in
// hand would — for any replica, watch event, re-list or fork that holds them.
// Everything else (newer tampered bytes, bytes rewritten at rest, a lagging
// replica's older array) misses, decodes for real and takes the entry over.
// Entries pin their arrays, so an address is never reused under them. A
// control plane has one, shared by all its servers: an accepted write
// installs one entry at every store replica, so one decode serves them all.
type decodeCache map[string]decodedEntry

// decodedEntry is one cached decode: the object and the address of the first
// byte of the array it was decoded from (never nil: empty values are not
// cached; a pointer, not a slice — a storm holds 2,000 of these).
type decodedEntry struct {
	obj spec.Object
	src *byte
}

// arrayOf returns the identity of a stored array — the address of its first
// byte — or nil for an empty value.
func arrayOf(data []byte) *byte {
	if len(data) == 0 {
		return nil
	}
	return &data[0]
}

// DecodeCacheStats reports this server's reads of stored entries that needed
// no decode (an object entry, or a cached decode of a bytes entry's array),
// real decodes, and lookups that found the cached revision over different
// bytes (diagnostics and tests).
func (s *Server) DecodeCacheStats() (hits, misses, rewrites int64) {
	return s.decodeHits, s.decodeMisses, s.decodeRewrites
}

// decodeCached returns the sealed object stored in entry e under key at
// backend mod revision rev. An object entry stamped with rev is that object,
// with no decode. Everything else is decoded from its bytes: a bytes entry's
// array through the cache (the cached object when it was decoded from this
// array at this revision, a real and then cached decode otherwise), and an
// object entry at a replica whose revision differs from the one it was
// stamped with from the bytes its writer would have stored. Decode errors are
// never cached: undecodable bytes are re-examined on every access.
func (s *Server) decodeCached(kind spec.Kind, key string, e store.Entry, rev int64) (spec.Object, error) {
	if obj := e.Object(); obj != nil {
		if obj.Meta().ResourceVersion == rev {
			s.decodeHits++
			return obj, nil
		}
		return s.decodeAt(kind, e.Bytes(), rev)
	}
	src := arrayOf(e.Value)
	if c, ok := s.decoded[key]; ok && c.obj.Meta().ResourceVersion == rev {
		if c.src == src {
			s.decodeHits++
			return c.obj, nil
		}
		s.decodeRewrites++
	}
	obj, err := s.decodeAt(kind, e.Value, rev)
	if err == nil && src != nil {
		s.decoded[key] = decodedEntry{obj: obj, src: src}
	}
	return obj, err
}

// decodeAt decodes data, stamps it with store revision rev and seals it.
func (s *Server) decodeAt(kind spec.Kind, data []byte, rev int64) (spec.Object, error) {
	obj, err := s.decode(kind, data)
	if err != nil {
		return nil, err
	}
	s.decodeMisses++
	// The resource version every reader sees is the store revision of the
	// write, exactly like etcd's mod revision.
	obj.Meta().ResourceVersion = rev
	spec.Seal(obj) // entering the shared read path: immutable from here on
	return obj, nil
}

// Audit returns the server's audit counters.
func (s *Server) Audit() *Audit { return s.audit }

// SetStoreWriteHook installs the apiserver→store channel hook.
func (s *Server) SetStoreWriteHook(h Hook) { s.storeWriteHook = h }

// SetRequestHook installs the component→apiserver channel hook, nil to remove
// it. While a hook is present every request crosses the wire: it is shown to
// the hook, encoded only if the hook asks, and applied as a private copy of
// the caller's object, or as the decode of bytes the hook changed (see
// received). Without one the server applies the object the caller handed
// over, so a hook belongs on a server only while something listens on the
// channel.
func (s *Server) SetRequestHook(h Hook) { s.requestHook = h }

// SetWatchHook installs the apiserver→component watch-channel hook (see the
// field docs), nil to remove it: the third injectable channel, covering the
// notifications the informer-style readiness pipeline depends on. A present
// hook sees every event.
func (s *Server) SetWatchHook(h Hook) { s.watchHook = h }

// SetAccessHook installs a callback invoked with the store key of every
// object served by a read or watch dispatch; the injection framework uses it
// to measure activation ("an injection is activated when the injected
// resource instance is requested after the injection").
func (s *Server) SetAccessHook(h func(key string)) { s.accessHook = h }

// noteAccess feeds one view-served read into the access hook (see
// Client.NoteAccess).
func (s *Server) noteAccess(key string) {
	if s.accessHook != nil {
		s.accessHook(key)
	}
}

// ClientFor returns a client of this server alone, bound to a component
// identity.
func (s *Server) ClientFor(identity string) *Client { return s.own.ClientFor(identity) }

// Endpoints returns the one-member endpoint set of this server alone, for a
// component that must stay pinned to it.
func (s *Server) Endpoints() *Endpoints { return s.own }

// CacheLen reports the number of cached objects (diagnostics).
func (s *Server) CacheLen() int { return len(s.byKey) }

// Restart simulates an apiserver restart: the watch cache is dropped and
// rebuilt from the store, which is when at-rest corruption becomes visible
// (§V-C1). Component watches survive (clients reconnect transparently) but
// receive a fresh Added event per object, like a watch re-list.
func (s *Server) Restart() {
	s.rebuildCache(true)
}

// rebuildCache reloads the watch cache from the server's store replica. With
// dispatch set, every object is re-announced to current watchers (a restart's
// re-list); without it, the cache is rebuilt silently (a fork's restore —
// components prime their own views when they start).
func (s *Server) rebuildCache(dispatch bool) {
	kvs, err := s.store.ListFrom(s.origin, "/registry/")
	if err != nil {
		// The local replica is lost: keep serving the frozen cache (stale
		// reads are this fault's signature) until the replica is restored.
		return
	}
	s.clearCache()
	for _, kv := range kvs {
		if s.store.Replicas() > 1 {
			// A replicated store re-lists through quorum reads: a restart
			// serves the value the majority agrees on, so single-replica
			// at-rest corruption is masked instead of resurrected — "quorum
			// reads mitigate corrupted values" (§V-C1). One member has no
			// majority to consult.
			kv = s.quorumVerify(kv)
		}
		// decodeCached stamps the store's mod revision and seals, exactly
		// like the watch path: the serialized bytes carry the resource
		// version the *writer* saw, and serving that stale version would
		// make every post-restart update fail its optimistic-concurrency
		// check. Object entries and cached bytes entries need no decode (a
		// restart re-list or fork restore decodes almost nothing); a key
		// whose bytes were rewritten at rest presents another array and
		// decodes for real, which is when the corruption becomes visible
		// (§V-C1).
		obj, err := s.decodeCached(kv.Kind, kv.Key, kv.Entry, kv.Revision)
		if err != nil {
			s.handleUndecodable(kv.Key)
			continue
		}
		s.cacheSet(kv.Key, kv.Kind, obj)
		if dispatch {
			s.dispatch(kv.Key, WatchEvent{Type: Added, Kind: kv.Kind, Object: obj})
		}
	}
}

// quorumVerify checks one re-listed KV against a quorum read. When the local
// bytes lose the vote (corrupted or lost-update replica), the quorum value is
// served under the local revision so per-replica RV semantics hold.
func (s *Server) quorumVerify(kv store.KV) store.KV {
	qkv, ok := s.store.QuorumGet(kv.Key)
	if !ok || qkv.Same(kv.Entry) {
		return kv
	}
	kv.Entry = qkv.Entry
	return kv
}

// clearCache empties the watch cache, keeping its memory.
func (s *Server) clearCache() {
	clear(s.byKey)
	for _, b := range s.kindIndex {
		b.reset()
	}
}

// cacheSet installs obj in the watch cache and reports whether it replaced an
// object cached under key.
func (s *Server) cacheSet(key string, kind spec.Kind, obj spec.Object) (replaced bool) {
	s.byKey[key] = obj
	b := s.kindIndex[kind]
	if b == nil {
		b = &sortedBucket{}
		s.kindIndex[kind] = b
	}
	return b.set(key, obj)
}

// --- request path (component → apiserver → store) ---------------------------

func (s *Server) handle(identity string, verb Verb, obj spec.Object) (err error) {
	if s.down {
		// A crashed apiserver never answers: the caller observes a timeout.
		// Nothing is counted — a dead process keeps no audit.
		return ErrTimeout
	}
	kind := obj.Kind()
	meta := obj.Meta()
	msg := &s.reqMsg
	if msg.Verb != 0 {
		msg = new(Message) // nested in another request: its own pair
	} else {
		defer func() { s.reqMsg, s.storeMsg = Message{}, Message{} }()
	}
	*msg = Message{
		Verb:      verb,
		Kind:      kind,
		Namespace: meta.Namespace,
		Name:      meta.Name,
		Source:    identity,
	}
	// The one place a failed request is counted: against its issuer, and as
	// a tampered request that errored if the request channel corrupted it.
	defer func() {
		if err != nil {
			s.audit.countError(identity, msg.Tampered)
		}
	}()
	// Fast path: no request hook, so nothing listens on the component→
	// apiserver wire, and a copy is dead weight too: every write hands its
	// object over (see Client.Create), and the server stamps, admits and
	// seals the caller's instance itself. Only a sealed argument — a cache
	// reference passed straight back — is copied first.
	if s.requestHook == nil {
		return s.apply(verb, msg, spec.CloneForWrite(obj))
	}
	// Channel 1: component → apiserver. Tampering here faces validation. The
	// message carries the caller's object, encoded only if the hook asks.
	msg.obj, msg.srv = obj, s
	if s.requestHook(msg) == Drop {
		// The request never reaches the server; the component times out.
		return ErrTimeout
	}
	recv, err := s.received(msg, obj)
	if err != nil {
		return err
	}
	return s.apply(verb, msg, recv)
}

// received returns the object the server applies for a request that crossed
// the request hook. Bytes a hook tampered with or put in place of the
// server's are decoded, so a corrupted request faces validation as the decode
// of what reached the server. Otherwise the wire would carry the caller's
// object unchanged, and its decode would equal a private copy of it (the
// codec round-trips exactly; FuzzRequestCopyMatchesRoundTrip): for a status
// write the status clone, whose metadata and spec alias the caller's
// read-only — apply grafts only its status onto the stored object — and a
// deep clone for every other verb. Either way the caller's instance comes
// out of the request unstamped, unsealed and without the revision report.
func (s *Server) received(msg *Message, obj spec.Object) (spec.Object, error) {
	if msg.Tampered || !msg.ownBytes() {
		recv := spec.New(msg.Kind)
		if err := codec.Unmarshal(msg.Encoded(), recv); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return recv, nil
	}
	if msg.Verb == VerbUpdateStatus {
		if cp := spec.WithStatus(obj, obj); cp != nil {
			return cp, nil
		}
	}
	return obj.Clone(), nil
}

// apply validates, admits and persists a request object: the one the caller
// handed over, or what crossed the request hook (see received). Existence and
// resource-version checks read the backend, not the watch cache: writes are
// transactional against the store (like etcd txns), while reads are served
// from the cache.
func (s *Server) apply(verb Verb, msg *Message, obj spec.Object) error {
	kind := msg.Kind
	key := spec.Key(kind, msg.Namespace, msg.Name)
	var donor spec.Object
	var stamped drawn
	cur, exists, curErr := s.current(kind, key)
	if errors.Is(curErr, store.ErrReplicaDown) {
		// This server's store replica is lost: every verb fails, and the
		// wrapped cause lets failover clients tell "endpoint unusable" from
		// an application error.
		return unavailable(curErr)
	}
	if curErr != nil && verb != VerbDelete {
		// The current object is undecodable: mutating requests fail until
		// the undecodable-deletion sweep removes it.
		return fmt.Errorf("%w: %v", ErrUnavailable, curErr)
	}

	switch verb {
	case VerbCreate:
		if exists {
			return ErrAlreadyExists
		}
		if err := s.validate(verb, msg, obj, nil); err != nil {
			return err
		}
		stamped = s.admitCreate(obj)
	case VerbUpdate:
		if !exists {
			return ErrNotFound
		}
		if obj.Meta().ResourceVersion != cur.Meta().ResourceVersion {
			return ErrConflict
		}
		if err := s.validate(verb, msg, obj, cur); err != nil {
			return err
		}
		// Updates preserve identity and creation metadata.
		obj.Meta().UID = cur.Meta().UID
		obj.Meta().CreatedMillis = cur.Meta().CreatedMillis
		obj.Meta().Generation = cur.Meta().Generation + 1
	case VerbUpdateStatus:
		if !exists {
			return ErrNotFound
		}
		if obj.Meta().ResourceVersion != cur.Meta().ResourceVersion {
			return ErrConflict
		}
		// Status updates cannot change spec or metadata: graft the incoming
		// status onto a status clone of the current object (subresource
		// semantics) — cur is the shared stored instance.
		donor, obj = obj, spec.WithStatus(cur, obj)
		if obj == nil {
			return fmt.Errorf("%w: kind %s has no status subresource", ErrBadRequest, kind)
		}
	case VerbDelete:
		if !exists {
			return ErrNotFound
		}
		return s.persistDelete(msg, key)
	}

	// Admission runs after validation and metadata handling, immediately
	// before persist: mutating hooks rewrite the (request-private) object,
	// validating hooks may deny it, and an unreachable fail-closed hook
	// rejects it. Status updates bypass the chain like the status
	// subresource exemption real webhook configurations carry — the spec
	// was admitted when it was written.
	if s.admission != nil && (verb == VerbCreate || verb == VerbUpdate) {
		if err := s.admission.Admit(verb, obj); err != nil {
			stamped.undo(obj)
			return err
		}
	}

	err := s.persistWrite(verb, msg, obj, key)
	if err != nil {
		stamped.undo(obj)
	}
	if err == nil && donor != nil && !donor.Meta().Sealed() {
		// Report the committed revision back on the status donor — the
		// response body a real apiserver returns as the updated object. A
		// status writer on a fixed cadence (the kubelet heartbeat) can then
		// reuse its own donor as the base of the next write instead of
		// re-reading the object every period. On the tampered or
		// hook-replaced paths persistWrite leaves obj at the old revision,
		// so the donor keeps it too and the next reuse surfaces as a
		// conflict — exactly the fresh-read fallback those semantics need.
		donor.Meta().ResourceVersion = obj.Meta().ResourceVersion
	}
	return err
}

// persistWrite commits obj. An untampered write whose bytes no store-channel
// hook replaced is stored as an object entry: obj itself, stamped with the
// revision it commits at and sealed, so every reader, replica and fork reads
// it with no decode. Decoding its bytes would reproduce obj field for field
// (the codec round-trips exactly), so this is the object a reader of the bytes
// would see. Those bytes are made only if a hook asks for them
// (Message.Encoded); the quota counts their exact size, taken before the
// revision is stamped, since stored bytes carry the resourceVersion the writer
// saw, like an etcd txn payload. Any other write — a tampered request or store
// message, bytes a hook put in place of the server's — is stored as the bytes
// that reached the store, and readers decode them: byte-level faults keep
// their semantics.
func (s *Server) persistWrite(verb Verb, msg *Message, obj spec.Object, key string) error {
	if s.opts.CriticalFieldChecksums {
		stampChecksum(obj)
	}
	size, err := codec.Size(obj)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	out := s.storeMessage(msg)
	*out = Message{
		Verb: verb, Kind: msg.Kind, Namespace: msg.Namespace, Name: msg.Name,
		Source: "apiserver", Tampered: msg.Tampered, obj: obj, srv: s,
	}
	// Channel 2: apiserver → store. Tampering here bypasses validation: the
	// corrupted transaction becomes the agreed cluster state.
	if s.storeWriteHook != nil && s.storeWriteHook(out) == Drop {
		return nil // the caller believes the write happened
	}
	entry := store.ObjectEntry(obj, obj.Meta().ResourceVersion, int64(size))
	if out.Tampered || !out.ownBytes() {
		entry = store.Entry{Value: out.Encoded()} // PutVia copies them
	}
	kv, err := s.store.PutVia(s.origin, key, msg.Kind, entry)
	if err != nil {
		return unavailable(err)
	}
	if entry.Object() != nil {
		obj.Meta().ResourceVersion = kv.Revision
		spec.Seal(obj) // entering the shared read path through the store
		// A decode of this key's earlier tampered bytes can never hit again.
		delete(s.decoded, key)
	}
	if msg.Tampered {
		s.audit.countTamperedOK()
	}
	return nil
}

// encode makes the bytes of request or store-channel message m from its
// object: into the server's request or store buffer for the outermost
// request's messages (the store copies what it keeps), into a fresh array for
// a nested request's, whose encode must not overwrite the bytes the outer
// request is still showing its hooks.
func (s *Server) encode(m *Message) {
	var own *[]byte
	switch m {
	case &s.reqMsg:
		own = &s.reqData
	case &s.storeMsg:
		own = &s.storeData
	}
	var buf []byte
	if own != nil {
		buf = (*own)[:0]
	}
	data, err := s.arena.AppendMarshal(buf, m.obj)
	if err != nil {
		return // not for a spec object; persistWrite's Size refuses one that fails
	}
	if own != nil {
		*own = data
	}
	m.Data, m.made, m.obj = data, data, nil
}

// storeMessage returns the store-channel message that goes with request
// message msg: the server's scratch one for its scratch request message, a
// fresh one for a nested request's.
func (s *Server) storeMessage(msg *Message) *Message {
	if msg == &s.reqMsg {
		return &s.storeMsg
	}
	return new(Message)
}

func (s *Server) persistDelete(msg *Message, key string) error {
	out := s.storeMessage(msg)
	*out = Message{
		Verb: VerbDelete, Kind: msg.Kind, Namespace: msg.Namespace, Name: msg.Name,
		Source: "apiserver",
	}
	if s.storeWriteHook != nil && s.storeWriteHook(out) == Drop {
		return nil
	}
	ok, err := s.store.DeleteVia(s.origin, key)
	if err != nil {
		return unavailable(err)
	}
	if !ok {
		return ErrNotFound
	}
	return nil
}

// drawn records which identities admitCreate drew from the server's counters.
type drawn struct{ uid, clusterIP bool }

// undo clears the identities drawn for a create that then failed. The object
// is the caller's own (a write hands it over), and a failover client resends
// it to the next server, which must stamp it as it would a fresh copy: with a
// UID and ClusterIP drawn from its own counters.
func (d drawn) undo(obj spec.Object) {
	if d.uid {
		obj.Meta().UID = ""
	}
	if d.clusterIP {
		obj.(*spec.Service).Spec.ClusterIP = ""
	}
}

// admitCreate fills server-assigned defaults on object creation and reports
// the identities it drew.
func (s *Server) admitCreate(obj spec.Object) (d drawn) {
	m := obj.Meta()
	if m.UID == "" {
		s.uidCounter += s.uidStride
		m.UID = spec.FormatUID(s.uidCounter)
		d.uid = true
	}
	if m.CreatedMillis == 0 {
		m.CreatedMillis = s.loop.Time().UnixMilli()
	}
	m.Generation = 1
	if svc, ok := obj.(*spec.Service); ok {
		if svc.Spec.ClusterIP == "" {
			s.ipCounter += s.uidStride
			svc.Spec.ClusterIP = fmt.Sprintf("10.96.0.%d", s.ipCounter%250+1)
			d.clusterIP = true
		}
		for i := range svc.Spec.Ports {
			if svc.Spec.Ports[i].Protocol == "" {
				svc.Spec.Ports[i].Protocol = "TCP"
			}
		}
	}
	return d
}

// --- store event path (store → apiserver → watchers) -------------------------

func (s *Server) onStoreEvent(ev store.Event) {
	switch ev.Type {
	case store.EventPut:
		// The untampered write path stored its sealed object (persistWrite),
		// whichever replica it went through; ingesting the event is then free
		// of any codec.Unmarshal. Tampered or externally-written bytes decode
		// for real, once. An event still in flight when its key was rewritten
		// at rest carries the pre-rewrite entry: it is served that entry's
		// object, and the rewritten bytes are decoded when something reads
		// them.
		obj, err := s.decodeCached(ev.Kind, ev.Key, ev.Entry, ev.Revision)
		if err != nil {
			s.handleUndecodable(ev.Key)
			return
		}
		typ := Added
		if s.cacheSet(ev.Key, ev.Kind, obj) {
			typ = Modified
		}
		s.dispatch(ev.Key, WatchEvent{Type: typ, Kind: ev.Kind, Object: obj})
	case store.EventDelete:
		delete(s.decoded, ev.Key)
		b := s.kindIndex[ev.Kind]
		if b == nil {
			return
		}
		if obj, existed := b.delete(ev.Key); existed {
			delete(s.byKey, ev.Key)
			s.dispatch(ev.Key, WatchEvent{Type: Deleted, Kind: ev.Kind, Object: obj})
		}
	}
}

// handleUndecodable implements the §II-D strategy: resources that cannot be
// deserialized are deleted to prevent failures when retrieving resource
// lists that contain them.
func (s *Server) handleUndecodable(key string) {
	s.loop.After(time.Millisecond, func() {
		_, _ = s.store.DeleteVia(s.origin, key)
	})
}

// current reads the authoritative state of key from the store. The object is
// the *sealed* stored instance — shared, read-only; the one write path that
// mutates it (status merge) goes through spec.CloneForStatus.
func (s *Server) current(kind spec.Kind, key string) (obj spec.Object, exists bool, err error) {
	kv, ok, err := s.store.GetFrom(s.origin, key)
	if err != nil || !ok {
		return nil, false, err
	}
	obj, err = s.decodeCached(kind, key, kv.Entry, kv.Revision)
	if err != nil {
		s.handleUndecodable(key)
		return nil, true, err
	}
	return obj, true, nil
}

func (s *Server) decode(kind spec.Kind, data []byte) (spec.Object, error) {
	obj := spec.New(kind)
	if obj == nil {
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, kind)
	}
	if err := codec.Unmarshal(data, obj); err != nil {
		return nil, err
	}
	if s.opts.CriticalFieldChecksums && !verifyChecksum(obj) {
		s.audit.countChecksumFailure()
		return nil, fmt.Errorf("%w: critical-field checksum mismatch", codec.ErrCorrupt)
	}
	return obj, nil
}

// dispatch queues ev for batched fan-out. key is the store key of the event's
// object — callers always have it at hand, which saves re-deriving (and
// allocating) it here for the access hook.
func (s *Server) dispatch(key string, ev WatchEvent) {
	if s.accessHook != nil {
		s.accessHook(key)
	}
	// Zero copies per dispatch: the event object is sealed, so every receiver
	// shares the cache instance itself. Watchers that need to mutate go
	// through spec.CloneForWrite.
	//
	// The event is queued with the sequence number the next registration
	// would draw, and one loop event — fanout — delivers it to all its
	// receivers, however many there are.
	// No watchers (e.g. a restart re-list before any component watches):
	// the fanout would deliver to nobody, so skip the queue and the loop
	// event outright.
	if s.live == 0 {
		return
	}
	s.pending.Put(pendingDispatch{ev: ev, limit: s.nextSeq})
}

// fanout delivers a queued event to its receivers: every watcher that was
// registered at dispatch time and wants it, in registration order. A watch
// hook that is present is live — installed only while a watch-channel
// injection is armed — and the event passes through it exactly once before
// delivery.
func (s *Server) fanout(pd pendingDispatch) {
	ev, deliver := s.interceptWatch(pd.ev)
	if s.down {
		// Crashed between dispatch and delivery: the notification dies with
		// the process.
		deliver = false
	}
	if !deliver {
		return
	}
	// The receivers are listed before the first callback runs: a callback may
	// claim, release or cancel, which edits the very lists they come from.
	targets := s.receivers(ev, pd.limit)
	for _, w := range targets {
		if !w.cancelled {
			w.fn(ev)
		}
	}
	s.fanoutScratch = targets[:0]
}

// interceptWatch offers ev to the watch-channel hook. It reports the event to
// deliver (possibly carrying a tampered private instance) and whether to
// deliver it at all. The store and the server's own cache are untouched
// either way — this channel models the notifications, not the state.
func (s *Server) interceptWatch(ev WatchEvent) (WatchEvent, bool) {
	if s.watchHook == nil {
		return ev, true
	}
	meta := ev.Object.Meta()
	msg := &Message{
		Verb:      watchVerb(ev.Type),
		Kind:      ev.Kind,
		Namespace: meta.Namespace,
		Name:      meta.Name,
		Source:    "apiserver",
	}
	// Deletion notifications carry no payload worth tampering; field and
	// byte faults need the serialized event object on the wire. Same buffer
	// discipline as handle/persistWrite: the bytes live only until the
	// in-function decode below, and a hook that swaps in its own slice leaves
	// the server's one untouched regardless.
	if ev.Type != Deleted {
		data, err := s.arena.AppendMarshal(s.watchData[:0], ev.Object)
		if err == nil {
			s.watchData, msg.Data = data, data
		}
	}
	if s.watchHook(msg) == Drop {
		// The notification is lost in flight; subscribers stay stale until
		// their next resync re-list reconciles them.
		return ev, false
	}
	if !msg.Tampered {
		return ev, true
	}
	recv := spec.New(ev.Kind)
	if err := codec.Unmarshal(msg.Data, recv); err != nil {
		// The tampered event no longer decodes on the client side: the
		// notification is effectively lost, like a dropped message.
		return ev, false
	}
	// Watchers see the corrupted instance under the committed revision; the
	// server's cache, decode cache, and store keep the clean object, so the
	// next list or resync observes the truth — watch-channel corruption is
	// transient by architecture.
	recv.Meta().ResourceVersion = meta.ResourceVersion
	spec.Seal(recv)
	ev.Object = recv
	return ev, true
}

// watchVerb maps a watch event type onto the verb vocabulary hooks share
// with the other two channels.
func watchVerb(t WatchEventType) Verb {
	switch t {
	case Added:
		return VerbCreate
	case Deleted:
		return VerbDelete
	default:
		return VerbUpdate
	}
}

// --- reads -------------------------------------------------------------------

// get serves a read as a sealed reference to the cache instance — the uniform
// sealed-read contract (no per-read defensive copy; writers CloneForWrite).
// This subsumes the former get/getView split: every read is now "view"-cheap,
// and immutability rather than copying provides the isolation.
func (s *Server) get(kind spec.Kind, namespace, name string) (spec.Object, error) {
	if s.down {
		return nil, ErrTimeout
	}
	key := spec.Key(kind, namespace, name)
	obj, ok := s.byKey[key]
	if !ok {
		return nil, ErrNotFound
	}
	if s.accessHook != nil {
		s.accessHook(key)
	}
	return obj, nil
}

// span returns kind's index and the [i, j) run of it that a list of
// namespace ("" = all) serves, after calling the access hook for every key of
// the run: the one read behind list and rangeKind. The index is sorted by
// store key, so a namespace's run is found by search, not by a scan. A down
// server serves nothing.
func (s *Server) span(kind spec.Kind, namespace string) (b *sortedBucket, i, j int) {
	if s.down {
		return nil, 0, 0
	}
	if b = s.kindIndex[kind]; b == nil {
		return nil, 0, 0
	}
	i, j = 0, len(b.keys)
	if namespace != "" {
		i, j = b.prefixRange("/registry/" + string(kind) + "/" + namespace + "/")
	}
	if s.accessHook != nil {
		for _, key := range b.keys[i:j] {
			s.accessHook(key)
		}
	}
	return b, i, j
}

// list returns sealed references in key order, under the same contract as
// get: a copy of the run span finds, with no per-item clone.
func (s *Server) list(kind spec.Kind, namespace string) []spec.Object {
	b, i, j := s.span(kind, namespace)
	if i == j {
		return nil
	}
	out := make([]spec.Object, j-i)
	copy(out, b.objs[i:j])
	return out
}

// rangeKind calls fn on what list returns, in the same order, without the
// copy: fn reads the index in place, so it must not write through the server.
func (s *Server) rangeKind(kind spec.Kind, namespace string, fn func(spec.Object) bool) {
	b, i, j := s.span(kind, namespace)
	for ; i < j; i++ {
		if !fn(b.objs[i]) {
			return
		}
	}
}

// receivers lists, in sequence order and below limit (the number the next
// registration would have drawn when the event was dispatched), the watchers
// ev goes to: the event kind's unscoped watchers and — for a pod event — the
// scoped watchers answering for the node the delivered object names or
// holding a claim on its UID. Registration order, each watcher once: identical
// to walking every registration and asking each whether it wants the event,
// without touching those that do not.
func (s *Server) receivers(ev WatchEvent, limit int) []*watcher {
	out := s.fanoutScratch[:0]
	s.fanoutScratch = nil // a fan-out nested in a callback takes its own
	out = appendBelow(out, s.watcherIdx[ev.Kind], limit)
	if pod, ok := ev.Object.(*spec.Pod); ok {
		n := len(out)
		out = s.byNode[pod.Spec.NodeName].appendBelow(out, limit)
		out = s.byUID[pod.Metadata.UID].appendBelow(out, limit)
		if len(out) > n {
			// A kubelet is under its node and under its claims: in sequence
			// order, its two entries are neighbours.
			slices.SortFunc(out, func(a, b *watcher) int { return cmp.Compare(a.seq, b.seq) })
			out = slices.Compact(out)
		}
	}
	return out
}

// appendBelow appends the head of list, ascending by sequence number, that lies
// below limit.
func appendBelow(out, list []*watcher, limit int) []*watcher {
	n, _ := slices.BinarySearchFunc(list, limit, bySeq)
	return append(out, list[:n]...)
}

// watch registers fn for the events of kind — for those in scope only, when
// one is given (pod watchers; see PodScope).
func (s *Server) watch(kind spec.Kind, scope *PodScope, fn func(WatchEvent)) (cancel func()) {
	w := &watcher{kind: kind, fn: fn, scope: scope, seq: s.nextSeq}
	s.nextSeq++
	s.live++
	if scope == nil {
		if s.watcherIdx == nil {
			s.watcherIdx = make(map[spec.Kind][]*watcher)
		}
		s.watcherIdx[kind] = append(s.watcherIdx[kind], w)
	} else {
		scope.srv, scope.w = s, w
		s.byNode.insert(scope.Node, w)
		for _, uid := range scope.claims {
			s.byUID.insert(uid, w)
		}
	}
	return func() { s.cancel(w) }
}

// cancel takes w out of every index it is in; cancelling twice is a no-op.
func (s *Server) cancel(w *watcher) {
	if w.cancelled {
		return
	}
	w.cancelled = true
	s.live--
	if w.scope == nil {
		s.watcherIdx[w.kind] = without(s.watcherIdx[w.kind], w)
		return
	}
	s.byNode.remove(w.scope.Node, w)
	if w.scope.w == w {
		// The scope's claims are exactly the UIDs indexed under w: every claim
		// and release since the registration went to this server.
		for _, uid := range w.scope.claims {
			s.byUID.remove(uid, w)
		}
	}
	s.detach(w)
}

// detach ends w's hold on its scope, if it still has one: claims made from now
// on are not this server's to index.
func (s *Server) detach(w *watcher) {
	if w.scope != nil && w.scope.w == w {
		w.scope.srv, w.scope.w = nil, nil
	}
}

// without removes w from list, ascending by sequence number, in place.
func without(list []*watcher, w *watcher) []*watcher {
	if i, found := slices.BinarySearchFunc(list, w.seq, bySeq); found && list[i] == w {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// spliceStatus builds the canonical encoding of obj, a status clone of the
// current object, from written — an encoding of the current object — by
// copying its metadata+spec records with obj's revision patched in (stored
// bytes carry the RV their writer saw) and appending obj's re-encoded status
// section. Returns nil bytes when the array does not parse or obj's kind has
// no status section — the caller falls back to a full encode. No write path
// calls it: an untampered write is stored as its object and encoded only on
// demand, so there is no stored array to splice onto.
func (s *Server) spliceStatus(b, written []byte, obj spec.Object) ([]byte, error) {
	status := spec.StatusOf(obj)
	if status == nil {
		return nil, nil
	}
	off, ok := codec.StatusOffset(written)
	if !ok {
		return nil, nil
	}
	b, ok = codec.AppendPrefixWithRV(b, written[:off], obj.Meta().ResourceVersion)
	if !ok {
		return nil, nil
	}
	return s.arena.AppendStructField(b, codec.ObjectStatusField, status)
}
