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
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// API error values, matched by components to decide on retries and by the
// audit trail feeding the user-error analysis (Figure 7).
var (
	ErrNotFound      = errors.New("apiserver: not found")
	ErrAlreadyExists = errors.New("apiserver: already exists")
	ErrConflict      = errors.New("apiserver: resource version conflict")
	ErrInvalid       = errors.New("apiserver: validation failed")
	ErrUnavailable   = errors.New("apiserver: store unavailable")
	ErrTimeout       = errors.New("apiserver: request timed out")
	ErrBadRequest    = errors.New("apiserver: malformed request")
)

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

// Message is one serialized write crossing a channel. Hooks may mutate Data
// in place; identity fields describe the request context (the "URL"), which
// is fixed before any tampering occurs.
type Message struct {
	Verb      Verb
	Kind      spec.Kind
	Namespace string
	Name      string
	Source    string // component identity that issued the request
	Data      []byte // encoded object; nil for deletes
	// Tampered is set by an injection hook when it mutates the message; it
	// lets the audit trail attribute outcomes for the propagation
	// experiments (Table VI).
	Tampered bool
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
// is valid only until the hook returns: a hook reads its fields and may mutate
// Data and Tampered, but must not keep the pointer — the request and store
// channels hand every hook the same two scratch values, zeroed when the
// request ends, and Data may alias a buffer that is reused after it. The
// hooks in the tree (inject.Recorder, inject.Injector, guard.Guard) copy what
// they keep.
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

	// uidStride spaces server-assigned UIDs and service IPs so N replicas
	// mint disjoint sequences (server i assigns origin+k·N). 1 for a single
	// server — the historical sequence.
	uidStride int64
	// uidOffset is the residue class SetAdmissionStride configured: where the
	// UID and service-IP counters start, and where Reset puts them back.
	uidOffset int64

	cache map[string]spec.Object // decoded watch cache, by store key
	// kindIndex mirrors cache as per-kind slices sorted by store key, so
	// list — the hottest read (every controller scan, scheduler pass, and
	// collector scrape) — is a binary search plus one contiguous copy
	// instead of a full map iteration and sort per call.
	kindIndex map[spec.Kind]*sortedBucket
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
	// claimed, and a pod event adds the two lists its object selects to the
	// merge — the kubelets that can act on it, however many there are. A
	// cancel takes its watcher out of all three at once.
	watcherIdx    map[spec.Kind][]*watcher
	byNode, byUID posIndex
	// fanoutScratch backs the receiver list of the fan-out in progress.
	fanoutScratch []*watcher

	// Batched fan-out: each dispatch appends one pendingDispatch and
	// schedules fanoutFn (built once — no per-dispatch closure) on the loop.
	// The scheduled events fire in dispatch order, and each delivers the
	// queue's front event to every matching watcher in one callback — the
	// exact delivery order of the former one-loop-event-per-watcher
	// scheduling, at a thirteenth of the event-heap traffic. head indexes
	// the front; the backing array is reused once the queue drains.
	pending     []pendingDispatch
	pendingHead int
	fanoutFn    func()

	// decoded is the control plane's decode cache (see DecodeCache): one per
	// cluster, shared by every replica like the audit trail. The counters are
	// this server's own lookups: hits, real decodes, and same-revision byte
	// changes (CorruptAtRest, or a stale array arriving late) seen at lookup.
	decoded        *DecodeCache
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
	// watchers see. watchGate mirrors requestWireGate: while it reports
	// false, the hook (and the per-event encode it requires) is skipped
	// entirely, keeping the fan-out free for campaigns armed elsewhere.
	watchHook Hook
	watchGate func() bool
	// requestWireGate, when set alongside a request hook, reports whether the
	// hook currently needs the serialized request bytes. While it returns
	// false the server elides the component→apiserver wire round-trip
	// (encode + decode) and applies a deep copy of the request object
	// directly — semantically identical for an uninterested hook, and the
	// dominant write-path saving of the copy-on-write pipeline.
	requestWireGate func() bool
	accessHook      func(key string)

	audit *Audit

	// admission is the webhook chain evaluated on every spec-carrying write
	// before persist (nil = no admission configured, zero write-path cost).
	// Like the audit, one chain is shared by every replica of an HA control
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
	// storeData are the buffers their Data is encoded into, reused by the next
	// request (the store copies what it keeps). A zero reqMsg.Verb means all
	// four are free; a handle entered while they are not takes its own
	// messages and encodes into fresh arrays (see scratch).
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

// New creates a Server bound to replica 0 of st and starts its store watch.
func New(loop *sim.Loop, st *store.Replicated, opts *Options) *Server {
	return NewAt(loop, st, 0, opts)
}

// NewAt creates a Server bound to store replica origin — one member of an HA
// control plane. Every origin serves reads and its watch feed from its own
// replica and writes through it, so a partitioned or lost replica degrades
// exactly the apiservers bound to it while the survivors keep serving.
func NewAt(loop *sim.Loop, st *store.Replicated, origin int, opts *Options) *Server {
	s := &Server{
		loop:      loop,
		store:     st,
		origin:    origin,
		uidStride: 1,
		cache:     make(map[string]spec.Object),
		kindIndex: make(map[spec.Kind]*sortedBucket),
		byNode:    make(posIndex),
		byUID:     make(posIndex),
		decoded:   &DecodeCache{entries: make(map[string]decodedEntry)},
		audit:     NewAudit(loop),
		arena:     codec.NewArena(),
	}
	s.fanoutFn = s.fanout
	s.own = NewEndpoints(loop, s)
	if opts != nil {
		s.opts = *opts
	}
	s.cancelStoreWatch = s.subscribeStore()
	return s
}

// Reset returns the server to the state NewAt and the Set* wiring calls left
// it in, keeping the memory of its tables: empty watch cache, list index and
// decode cache, no watchers, no queued dispatch, no hooks or gates, counters
// at their configured start, up, audit trail empty. What survives is wiring,
// not state: the store binding, the admission stride, the shared audit
// trail, decode cache and admission chain (the first two are emptied here, by
// every replica alike; Reset does not touch the chain: it has one owner, the
// servers are many), the encode arena. Every registration counts as cancelled
// from here on, so a late cancel is a no-op. The store must have been Reset
// first — the server re-subscribes to it here, as NewAt did — and so must the
// loop: a queued dispatch is dropped, not delivered.
func (s *Server) Reset() {
	s.clearCache()
	clear(s.decoded.entries)
	s.decodeHits, s.decodeMisses, s.decodeRewrites = 0, 0, 0

	for k, ws := range s.watcherIdx {
		for _, w := range ws {
			w.cancelled = true
		}
		clear(ws)
		s.watcherIdx[k] = ws[:0]
	}
	for _, p := range s.byNode { // every scoped registration, under its node
		var one [1]*watcher
		for _, w := range p.all(&one) {
			w.cancelled = true
			s.detach(w)
		}
	}
	clear(s.byNode)
	clear(s.byUID)
	s.nextSeq, s.live = 0, 0
	clear(s.pending)
	s.pending = s.pending[:0]
	s.pendingHead = 0

	s.uidCounter, s.ipCounter = s.uidOffset, s.uidOffset
	s.down = false
	s.storeWriteHook, s.requestHook, s.watchHook = nil, nil, nil
	s.watchGate, s.requestWireGate, s.accessHook = nil, nil, nil
	s.audit.reset()
	s.cancelStoreWatch = s.subscribeStore()
}

// subscribeStore makes the server its own store replica's subscriber.
func (s *Server) subscribeStore() func() {
	return s.store.Subscribe(s.origin, s.onStoreEvent)
}

// SetAdmissionStride configures UID and service-IP assignment so this server
// mints the residue class offset mod stride — HA replicas never collide even
// when clients fail over between them mid-workload.
func (s *Server) SetAdmissionStride(offset, stride int) {
	s.uidOffset = int64(offset)
	s.uidCounter = s.uidOffset
	s.ipCounter = s.uidOffset
	s.uidStride = int64(stride)
}

// SetAudit replaces the server's audit trail. The HA control plane shares one
// trail across all replicas so per-identity error accounting is cluster-wide,
// like scraping every apiserver's audit log into one place. Call before any
// request is served.
func (s *Server) SetAudit(a *Audit) { s.audit = a }

// DecodeCache returns the server's decode cache.
func (s *Server) DecodeCache() *DecodeCache { return s.decoded }

// SetDecodeCache replaces the server's decode cache. The HA control plane
// shares one across all replicas: an accepted write installs one byte array at
// every store replica, so one decode serves them all. Call before any request
// is served.
func (s *Server) SetDecodeCache(c *DecodeCache) { s.decoded = c }

// SetAdmissionChain installs the (cluster-shared) admission webhook chain.
// Call on every replica of an HA control plane with the same chain.
func (s *Server) SetAdmissionChain(c *AdmissionChain) { s.admission = c }

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

// DecodeCache holds, per store key, the sealed decoded form of one stored byte
// array. A lookup hits only for that very array at the revision the object is
// stamped with: stored arrays are immutable and the codec is a pure function
// of the bytes, so a hit returns exactly what decoding the bytes in hand would
// — for any replica, watch event, re-list or fork that holds them. Everything
// else (a newer write, a tampered store write, bytes rewritten at rest, a
// lagging replica's older array) misses, decodes for real and takes the entry
// over. Entries pin their arrays, so an address is never reused under them.
type DecodeCache struct {
	entries map[string]decodedEntry
}

// decodedEntry is one cached decode: the object, the address of the first
// byte of the array it was decoded from (never nil: empty values are not
// cached; a pointer, not a slice — a storm holds 2,000 of these), and where
// that array's status record starts.
//
// statusOff is set (≥ 0) only when the write path produced the array
// (persistWrite): the array is then obj's encoding at the RV its writer saw,
// so array[:statusOff] with the RV patched to obj's
// (codec.AppendPrefixWithRV), followed by array[statusOff:], is byte for byte
// codec.Marshal(obj), and a status update to the key copies that prefix
// instead of re-encoding metadata and spec (spliceStatus). It is -1 for an
// array that was decoded: a tampered write, bytes rewritten at rest, a
// lagging replica's array.
type decodedEntry struct {
	obj       spec.Object
	src       *byte
	statusOff int
}

// arrayOf returns the identity of a stored array — the address of its first
// byte — or nil for an empty value.
func arrayOf(data []byte) *byte {
	if len(data) == 0 {
		return nil
	}
	return &data[0]
}

// DecodeCacheStats reports this server's decode-cache hits, real decodes, and
// lookups that found the cached revision over different bytes (diagnostics
// and tests).
func (s *Server) DecodeCacheStats() (hits, misses, rewrites int64) {
	return s.decodeHits, s.decodeMisses, s.decodeRewrites
}

// decodeCached returns the sealed decoded form of data, the bytes stored under
// key at backend mod revision rev, and the entry's status offset (-1 unless
// the write path produced data): the cached object when it was decoded from
// this array at this revision, a real (and then cached) decode otherwise.
// Decode errors are never cached: undecodable bytes are re-examined on every
// access.
func (s *Server) decodeCached(kind spec.Kind, key string, data []byte, rev int64) (spec.Object, int, error) {
	src := arrayOf(data)
	if e, ok := s.decoded.entries[key]; ok && e.obj.Meta().ResourceVersion == rev {
		if e.src == src {
			s.decodeHits++
			return e.obj, e.statusOff, nil
		}
		s.decodeRewrites++
	}
	obj, err := s.decode(kind, data)
	if err != nil {
		return nil, -1, err
	}
	s.decodeMisses++
	// The resource version every reader sees is the store revision of the
	// write, exactly like etcd's mod revision.
	obj.Meta().ResourceVersion = rev
	spec.Seal(obj) // entering the shared read path: immutable from here on
	if src != nil {
		s.decoded.entries[key] = decodedEntry{obj: obj, src: src, statusOff: -1}
	}
	return obj, -1, nil
}

// Audit returns the server's audit trail.
func (s *Server) Audit() *Audit { return s.audit }

// SetStoreWriteHook installs the apiserver→store channel hook.
func (s *Server) SetStoreWriteHook(h Hook) { s.storeWriteHook = h }

// SetRequestHook installs the component→apiserver channel hook.
func (s *Server) SetRequestHook(h Hook) { s.requestHook = h }

// SetRequestWireGate installs the request-wire interest gate (see the field
// docs). Without a gate, any installed request hook always receives the
// serialized message, preserving the legacy contract.
func (s *Server) SetRequestWireGate(g func() bool) { s.requestWireGate = g }

// SetWatchHook installs the apiserver→component watch-channel hook (see the
// field docs): the third injectable channel, covering the notifications the
// informer-style readiness pipeline depends on.
func (s *Server) SetWatchHook(h Hook) { s.watchHook = h }

// SetWatchGate installs the watch-channel interest gate. Without a gate, an
// installed watch hook sees every event.
func (s *Server) SetWatchGate(g func() bool) { s.watchGate = g }

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
func (s *Server) CacheLen() int { return len(s.cache) }

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
		// check. Unmodified keys hit the decode cache (a restart re-list or
		// fork restore decodes almost nothing); a key whose bytes were
		// rewritten at rest presents another array and decodes for real,
		// which is when the corruption becomes visible (§V-C1).
		obj, _, err := s.decodeCached(kv.Kind, kv.Key, kv.Value, kv.Revision)
		if err != nil {
			s.handleUndecodable(kv.Key, kv.Kind)
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
	if !ok || bytes.Equal(qkv.Value, kv.Value) {
		return kv
	}
	kv.Value = qkv.Value
	return kv
}

// clearCache empties the watch cache and the per-kind list index, keeping
// their memory.
func (s *Server) clearCache() {
	clear(s.cache)
	for _, b := range s.kindIndex {
		b.reset()
	}
}

// cacheSet installs obj in the watch cache and the per-kind list index.
func (s *Server) cacheSet(key string, kind spec.Kind, obj spec.Object) {
	s.cache[key] = obj
	b := s.kindIndex[kind]
	if b == nil {
		b = &sortedBucket{}
		s.kindIndex[kind] = b
	}
	b.set(key, obj)
}

// cacheDelete removes key from the watch cache and the per-kind list index.
func (s *Server) cacheDelete(key string, kind spec.Kind) {
	delete(s.cache, key)
	if b := s.kindIndex[kind]; b != nil {
		b.delete(key)
	}
}

// --- request path (component → apiserver → store) ---------------------------

func (s *Server) handle(identity string, verb Verb, obj spec.Object) error {
	if s.down {
		// A crashed apiserver never answers: the caller observes a timeout.
		// Nothing is audited — a dead process writes no log.
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
	// Fast path: no request hook, or the installed hook declares (via the
	// wire gate) that it does not currently need the serialized bytes —
	// e.g. an injector armed on the store channel. The component→apiserver
	// round-trip (encode + decode) is then observationally dead weight; a
	// deep copy of the request object is bit-equivalent to decoding its own
	// encoding, and roughly 5× cheaper. Status updates and deletes skip
	// even that copy: the server never retains or mutates the request
	// object on those verbs (the status is grafted onto the server's own
	// clone of the current object; a delete only reads identity), so the
	// caller's instance can be read in place.
	if !s.requestWireArmed() {
		if verb == VerbUpdateStatus || verb == VerbDelete {
			return s.apply(identity, verb, msg, obj)
		}
		return s.apply(identity, verb, msg, obj.Clone())
	}
	// The request wire bytes live only for the duration of this (synchronous)
	// handle call — the store copies on Put — so they are encoded into the
	// server's request buffer instead of a per-request allocation.
	data, err := s.arena.AppendMarshal(s.scratch(msg, s.reqData), obj)
	if err != nil {
		return s.audit.record(identity, verb, kind, meta.Name, fmt.Errorf("%w: %v", ErrBadRequest, err), false)
	}
	s.reqData, msg.Data = data, data

	// Channel 1: component → apiserver. Tampering here faces validation.
	if s.requestHook != nil {
		switch s.requestHook(msg) {
		case Drop:
			// The request never reaches the server; the component times out.
			return s.audit.record(identity, verb, kind, msg.Name, ErrTimeout, msg.Tampered)
		}
	}

	recv := spec.New(kind)
	if err := codec.Unmarshal(msg.Data, recv); err != nil {
		return s.audit.record(identity, verb, kind, msg.Name, fmt.Errorf("%w: %v", ErrBadRequest, err), msg.Tampered)
	}

	return s.apply(identity, verb, msg, recv)
}

// apply validates, admits and persists a decoded request object. Existence
// and resource-version checks read the backend, not the watch cache: writes
// are transactional against the store (like etcd txns), while reads are
// served from the cache.
func (s *Server) apply(identity string, verb Verb, msg *Message, obj spec.Object) error {
	kind := msg.Kind
	key := spec.Key(kind, msg.Namespace, msg.Name)
	var donor spec.Object
	var splice []byte
	cur, prefix, exists, curErr := s.current(kind, key)
	if errors.Is(curErr, store.ErrReplicaDown) {
		// This server's store replica is lost: every verb fails, and the
		// wrapped cause lets failover clients tell "endpoint unusable" from
		// an application error.
		return s.audit.record(identity, verb, kind, msg.Name, fmt.Errorf("%w: %w", ErrUnavailable, curErr), msg.Tampered)
	}
	if curErr != nil && verb != VerbDelete {
		// The current object is undecodable: mutating requests fail until
		// the undecodable-deletion sweep removes it.
		return s.audit.record(identity, verb, kind, msg.Name, fmt.Errorf("%w: %v", ErrUnavailable, curErr), msg.Tampered)
	}

	switch verb {
	case VerbCreate:
		if exists {
			return s.audit.record(identity, verb, kind, msg.Name, ErrAlreadyExists, msg.Tampered)
		}
		if err := s.validate(verb, msg, obj, nil); err != nil {
			return s.audit.record(identity, verb, kind, msg.Name, err, msg.Tampered)
		}
		s.admitCreate(obj)
	case VerbUpdate:
		if !exists {
			return s.audit.record(identity, verb, kind, msg.Name, ErrNotFound, msg.Tampered)
		}
		if obj.Meta().ResourceVersion != cur.Meta().ResourceVersion {
			return s.audit.record(identity, verb, kind, msg.Name, ErrConflict, msg.Tampered)
		}
		if err := s.validate(verb, msg, obj, cur); err != nil {
			return s.audit.record(identity, verb, kind, msg.Name, err, msg.Tampered)
		}
		// Updates preserve identity and creation metadata.
		obj.Meta().UID = cur.Meta().UID
		obj.Meta().CreatedMillis = cur.Meta().CreatedMillis
		obj.Meta().Generation = cur.Meta().Generation + 1
	case VerbUpdateStatus:
		if !exists {
			return s.audit.record(identity, verb, kind, msg.Name, ErrNotFound, msg.Tampered)
		}
		if obj.Meta().ResourceVersion != cur.Meta().ResourceVersion {
			return s.audit.record(identity, verb, kind, msg.Name, ErrConflict, msg.Tampered)
		}
		// Status updates cannot change spec or metadata: graft the incoming
		// status onto a status clone of the current object (subresource
		// semantics) — cur is the shared decode-cache instance. The stored
		// array's prefix rides along as the splice source: with the revision
		// patched in, it is the encoding of exactly the metadata and spec the
		// merged object shares.
		splice = prefix
		donor, obj = obj, spec.WithStatus(cur, obj)
		if obj == nil {
			err := fmt.Errorf("%w: kind %s has no status subresource", ErrBadRequest, kind)
			return s.audit.record(identity, verb, kind, msg.Name, err, msg.Tampered)
		}
	case VerbDelete:
		if !exists {
			return s.audit.record(identity, verb, kind, msg.Name, ErrNotFound, msg.Tampered)
		}
		return s.persistDelete(identity, msg, key)
	}

	// Admission runs after validation and metadata handling, immediately
	// before persist: mutating hooks rewrite the (request-private) object,
	// validating hooks may deny it, and an unreachable fail-closed hook
	// rejects it. Status updates bypass the chain like the status
	// subresource exemption real webhook configurations carry — the spec
	// was admitted when it was written.
	if s.admission != nil && (verb == VerbCreate || verb == VerbUpdate) {
		if err := s.admission.Admit(verb, obj); err != nil {
			return s.audit.record(identity, verb, kind, msg.Name, err, msg.Tampered)
		}
	}

	err := s.persistWrite(identity, verb, msg, obj, key, splice)
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

// persistWrite encodes obj and commits it. When prefix is non-nil (a status
// update whose current array the write path produced), the encode copies it
// with the revision patched in and re-encodes only the status section —
// byte-identical to a full Marshal, because the merged object shares metadata
// and spec with the current one and the encoder is deterministic. The splice
// is off whenever a request-channel injection is armed (stored bytes must
// never stand in for freshly encoded ones under byte-fault semantics) and
// under critical-field checksums (the fresh stamp changes the metadata
// section the prefix covers).
func (s *Server) persistWrite(identity string, verb Verb, msg *Message, obj spec.Object, key string, prefix []byte) error {
	if s.opts.CriticalFieldChecksums {
		stampChecksum(obj)
		prefix = nil
	}
	// Same buffer discipline as handle: the store copies the value, and
	// injection hooks that replace out.Data swap in their own slice.
	buf := s.scratch(msg, s.storeData)
	var data []byte
	var err error
	statusOff := -1 // where data's status record starts, when a splice put it there
	if prefix != nil && !s.requestWireArmed() {
		data, statusOff, err = s.spliceStatus(buf, prefix, obj)
		if err != nil {
			data = nil // malformed splice source: fall back to a full encode
		}
	}
	if data == nil {
		statusOff = -1
		data, err = s.arena.AppendMarshal(buf, obj)
		if err != nil {
			return s.audit.record(identity, verb, msg.Kind, msg.Name, fmt.Errorf("%w: %v", ErrBadRequest, err), msg.Tampered)
		}
	}
	s.storeData = data
	out := s.storeMessage(msg)
	*out = Message{
		Verb: verb, Kind: msg.Kind, Namespace: msg.Namespace, Name: msg.Name,
		Source: "apiserver", Data: data, Tampered: msg.Tampered,
	}
	// Channel 2: apiserver → store. Tampering here bypasses validation: the
	// corrupted transaction becomes the agreed cluster state.
	if s.storeWriteHook != nil {
		switch s.storeWriteHook(out) {
		case Drop:
			s.audit.countDrop()
			return nil // the caller believes the write happened
		}
	}
	rev, err := s.store.PutVia(s.origin, key, msg.Kind, out.Data)
	if err != nil {
		// %w on the cause too: failover clients match store.ErrReplicaDown /
		// store.ErrNoQuorum to retry against another apiserver.
		return s.audit.record(identity, verb, msg.Kind, msg.Name, fmt.Errorf("%w: %w", ErrUnavailable, err), msg.Tampered)
	}
	// Prime the decode cache with the object just persisted: decoding the
	// stored bytes would reproduce obj field for field (the codec round-trips
	// exactly), so the conflict check of the next write to this key — and the
	// watch ingest of this very write, at every replica — skip the
	// backend-byte Unmarshal. Only if the bytes that reached the store are
	// verbatim the encoding of obj, though: a store-channel hook that replaced
	// or tampered the payload keeps byte-level fault semantics by forcing a
	// real decode later.
	if !out.Tampered && len(out.Data) == len(data) && arrayOf(out.Data) == arrayOf(data) {
		obj.Meta().ResourceVersion = rev
		spec.Seal(obj) // entering the shared read path via the decode cache
		// The array the store installed (its one copy of data) is what every
		// later read and event will present, so the decode-cache entry is valid
		// for exactly that array — and the entry records where the array's
		// status record starts, so the next status update to this key copies
		// the array's metadata+spec prefix with the committed revision patched
		// in flight (spliceStatus) instead of re-encoding the two sections.
		// Nothing is re-scanned here when a splice already knows the offset;
		// only a full marshal is scanned for it. Only kinds with a status
		// section record one, and an armed request channel records none (byte
		// faults must always act on freshly produced bytes).
		kv, ok, _ := s.store.GetFrom(s.origin, key)
		if ok && len(kv.Value) > 0 {
			if kv.Revision != rev || spec.StatusOf(obj) == nil || s.requestWireArmed() {
				statusOff = -1
			} else if statusOff < 0 {
				if off, scanned := codec.StatusOffset(kv.Value); scanned {
					statusOff = off
				}
			}
			s.decoded.entries[key] = decodedEntry{obj: obj, src: &kv.Value[0], statusOff: statusOff}
		}
	}
	s.audit.countOK(identity, verb)
	if msg.Tampered {
		s.audit.countTamperedOK()
	}
	return nil
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

func (s *Server) persistDelete(identity string, msg *Message, key string) error {
	out := s.storeMessage(msg)
	*out = Message{
		Verb: VerbDelete, Kind: msg.Kind, Namespace: msg.Namespace, Name: msg.Name,
		Source: "apiserver",
	}
	if s.storeWriteHook != nil {
		switch s.storeWriteHook(out) {
		case Drop:
			s.audit.countDrop()
			return nil
		}
	}
	ok, err := s.store.DeleteVia(s.origin, key)
	if err != nil {
		return s.audit.record(identity, VerbDelete, msg.Kind, msg.Name, fmt.Errorf("%w: %w", ErrUnavailable, err), msg.Tampered)
	}
	if !ok {
		return s.audit.record(identity, VerbDelete, msg.Kind, msg.Name, ErrNotFound, msg.Tampered)
	}
	s.audit.countOK(identity, VerbDelete)
	return nil
}

// admitCreate fills server-assigned defaults on object creation.
func (s *Server) admitCreate(obj spec.Object) {
	m := obj.Meta()
	if m.UID == "" {
		s.uidCounter += s.uidStride
		m.UID = spec.FormatUID(s.uidCounter)
	}
	if m.CreatedMillis == 0 {
		m.CreatedMillis = s.loop.Time().UnixMilli()
	}
	m.Generation = 1
	if svc, ok := obj.(*spec.Service); ok {
		if svc.Spec.ClusterIP == "" {
			s.ipCounter += s.uidStride
			svc.Spec.ClusterIP = fmt.Sprintf("10.96.0.%d", s.ipCounter%250+1)
		}
		for i := range svc.Spec.Ports {
			if svc.Spec.Ports[i].Protocol == "" {
				svc.Spec.Ports[i].Protocol = "TCP"
			}
		}
	}
}

// --- store event path (store → apiserver → watchers) -------------------------

func (s *Server) onStoreEvent(ev store.Event) {
	switch ev.Type {
	case store.EventPut:
		// The untampered write path already cached the decoded form of this
		// array at this revision (persistWrite), whichever replica it went
		// through; ingesting the event is then free of any codec.Unmarshal.
		// Tampered or externally-written bytes miss and decode for real. An
		// event still in flight when its key was rewritten at rest carries
		// the pre-rewrite array: it is served that array's decode, and the
		// rewritten bytes keep missing until something reads them.
		obj, _, err := s.decodeCached(ev.Kind, ev.Key, ev.Value, ev.Revision)
		if err != nil {
			s.handleUndecodable(ev.Key, ev.Kind)
			return
		}
		_, existed := s.cache[ev.Key]
		s.cacheSet(ev.Key, ev.Kind, obj)
		typ := Added
		if existed {
			typ = Modified
		}
		s.dispatch(ev.Key, WatchEvent{Type: typ, Kind: ev.Kind, Object: obj})
	case store.EventDelete:
		delete(s.decoded.entries, ev.Key)
		obj, existed := s.cache[ev.Key]
		if !existed {
			return
		}
		s.cacheDelete(ev.Key, ev.Kind)
		s.dispatch(ev.Key, WatchEvent{Type: Deleted, Kind: ev.Kind, Object: obj})
	}
}

// handleUndecodable implements the §II-D strategy: resources that cannot be
// deserialized are deleted to prevent failures when retrieving resource
// lists that contain them.
func (s *Server) handleUndecodable(key string, kind spec.Kind) {
	s.audit.countUndecodable()
	s.loop.After(time.Millisecond, func() {
		_, _ = s.store.DeleteVia(s.origin, key)
	})
}

// current reads the authoritative state of key from the store. The object is
// the *sealed* decode-cache instance — shared, read-only; the one write path
// that mutates it (status merge) goes through spec.CloneForStatus. prefix is
// the metadata+spec records of the array just read when the write path
// produced that array (see decodedEntry), nil otherwise: what a status update
// splices its status record onto.
func (s *Server) current(kind spec.Kind, key string) (obj spec.Object, prefix []byte, exists bool, err error) {
	kv, ok, err := s.store.GetFrom(s.origin, key)
	if err != nil || !ok {
		return nil, nil, false, err
	}
	obj, off, err := s.decodeCached(kind, key, kv.Value, kv.Revision)
	if err != nil {
		s.handleUndecodable(key, kind)
		return nil, nil, true, err
	}
	if off >= 0 {
		prefix = kv.Value[:off]
	}
	return obj, prefix, true, nil
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
	// Zero copies per dispatch: the event object is sealed, so all ~13
	// watchers share the cache instance itself. Watchers that need to mutate
	// go through spec.CloneForWrite; at campaign scale the per-event deep
	// copy this replaces was the single largest allocation source.
	//
	// Deliveries are batched per watcher: the event is appended to the
	// watcher's queue, and one flush per watcher per virtual tick drains it.
	// A burst of same-tick events (a reconcile loop's writes landing after
	// the store's fixed watch latency, a restart re-list) schedules ~13 loop
	// events total instead of ~13 per object.
	// No watchers (e.g. a restart re-list before any component watches):
	// the fanout would deliver to nobody, so skip the queue and loop-event
	// traffic outright.
	if s.live == 0 {
		return
	}
	s.pending = append(s.pending, pendingDispatch{ev: ev, limit: s.nextSeq})
	s.loop.After(0, s.fanoutFn)
}

// fanout delivers the front pending event to every watcher that was
// registered at dispatch time and matches its kind, in registration order —
// one loop event per watch event instead of one per (event, watcher) pair.
// When a watch-channel injection is armed (the gate reports interest), the
// event passes through the watch hook exactly once before delivery.
func (s *Server) fanout() {
	pd := s.pending[s.pendingHead]
	s.pending[s.pendingHead] = pendingDispatch{} // release the object ref
	s.pendingHead++
	if s.pendingHead == len(s.pending) {
		s.pending = s.pending[:0]
		s.pendingHead = 0
	}
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
	// claim, release or cancel, which edits the very lists being merged.
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
	if s.watchHook == nil || (s.watchGate != nil && !s.watchGate()) {
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
	obj, ok := s.cache[key]
	if !ok {
		return nil, ErrNotFound
	}
	if s.accessHook != nil {
		s.accessHook(key)
	}
	return obj, nil
}

// list returns sealed references in key order, under the same contract as
// get. The per-kind index makes this a binary search plus one contiguous
// copy: no map iteration, no per-call sort, no per-item clone.
func (s *Server) list(kind spec.Kind, namespace string) []spec.Object {
	if s.down {
		return nil
	}
	b := s.kindIndex[kind]
	if b == nil || len(b.keys) == 0 {
		return nil
	}
	i, j := 0, len(b.keys)
	if namespace != "" {
		prefix := "/registry/" + string(kind) + "/" + namespace + "/"
		i = sort.SearchStrings(b.keys, prefix)
		j = i
		for j < len(b.keys) && strings.HasPrefix(b.keys[j], prefix) {
			j++
		}
	}
	if i == j {
		return nil
	}
	if s.accessHook != nil {
		for _, key := range b.keys[i:j] {
			s.accessHook(key)
		}
	}
	out := make([]spec.Object, j-i)
	copy(out, b.objs[i:j])
	return out
}

// receivers lists, in sequence order and below limit (the number the next
// registration would have drawn when the event was dispatched), the watchers
// ev goes to: the event kind's unscoped watchers and — for a pod event — the
// scoped watchers answering for the node the delivered object names or
// holding a claim on its UID. Registration order, each watcher once: identical
// to walking every registration and asking each whether it wants the event,
// without touching those that do not.
func (s *Server) receivers(ev WatchEvent, limit int) []*watcher {
	lists := [3][]*watcher{s.watcherIdx[ev.Kind]}
	var node, uid [1]*watcher
	if pod, ok := ev.Object.(*spec.Pod); ok {
		lists[1] = s.byNode.list(pod.Spec.NodeName, &node)
		lists[2] = s.byUID.list(pod.Metadata.UID, &uid)
	}
	// heads holds the sequence number at the front of each list — limit once
	// the list has nothing below it — so the merge compares locals.
	var heads [3]int
	head := func(l []*watcher) int {
		if len(l) == 0 || l[0].seq >= limit {
			return limit
		}
		return l[0].seq
	}
	for i, l := range lists {
		heads[i] = head(l)
	}
	out := s.fanoutScratch[:0]
	s.fanoutScratch = nil // a fan-out nested in a callback takes its own
	for {
		next := 0
		for i := 1; i < len(heads); i++ {
			if heads[i] < heads[next] {
				next = i
			}
		}
		if heads[next] == limit {
			return out
		}
		w := lists[next][0]
		lists[next] = lists[next][1:]
		heads[next] = head(lists[next])
		if len(out) == 0 || out[len(out)-1] != w {
			out = append(out, w)
		}
	}
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

// requestWireArmed reports whether a request-channel hook currently wants
// serialized bytes. While armed, the write path neither splices onto stored
// arrays nor records their status offsets: byte-fault semantics require every
// wire byte a hook can observe or tamper to be freshly produced.
func (s *Server) requestWireArmed() bool {
	return s.requestHook != nil && (s.requestWireGate == nil || s.requestWireGate())
}

// scratch returns buf, emptied, as the encode destination of the request
// whose message is msg when that is the outermost request, and nil — a fresh
// array — for a request nested in it (issued from a hook), whose encode must
// not overwrite the bytes the outer request is still showing its hooks.
func (s *Server) scratch(msg *Message, buf []byte) []byte {
	if msg != &s.reqMsg {
		return nil
	}
	return buf[:0]
}

// spliceStatus builds the canonical encoding of obj, a status clone of the
// current object, from prefix — the metadata+spec records of the array the
// store holds for the current object — by copying them with obj's revision
// patched in (stored bytes carry the RV their writer saw) and appending obj's
// re-encoded status section. It also reports where in the result that section
// starts. Returns nil bytes when prefix does not parse or obj's kind has no
// status section — the caller falls back to a full encode.
func (s *Server) spliceStatus(b, prefix []byte, obj spec.Object) ([]byte, int, error) {
	status := spec.StatusOf(obj)
	if status == nil {
		return nil, 0, nil
	}
	start := len(b)
	b, ok := codec.AppendPrefixWithRV(b, prefix, obj.Meta().ResourceVersion)
	if !ok {
		return nil, 0, nil
	}
	statusOff := len(b) - start
	b, err := s.arena.AppendStructField(b, codec.ObjectStatusField, status)
	return b, statusOff, err
}
