// Package store implements the cluster data store: a revisioned, watchable
// key-value store holding the serialized state of every resource instance.
//
// It mirrors the etcd properties the paper's injection methodology relies on
// (§II-C, §IV-A): all cluster state is confined here, making it the
// dependability bottleneck; values are opaque serialized bytes, so a
// corrupted transaction is stored verbatim and every observer sees the same
// wrong value; and a store that runs out of space stops accepting writes,
// which is the terminal phase of the paper's uncontrolled-replication
// failures ("eventually, the disk of the control plane Node can fill up,
// stalling Etcd").
package store

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// ErrNoSpace is returned by writes once the database exceeds its quota,
// mirroring etcd's NOSPACE alarm.
var ErrNoSpace = errors.New("store: database space exceeded")

// ErrTooLarge is returned for a single value above the per-request limit,
// mirroring etcd's max request size.
var ErrTooLarge = errors.New("store: request too large")

// EventType distinguishes watch events.
type EventType int

// Watch event types.
const (
	EventPut EventType = iota + 1
	EventDelete
)

func (t EventType) String() string {
	switch t {
	case EventPut:
		return "PUT"
	case EventDelete:
		return "DELETE"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// Event describes one committed change.
type Event struct {
	Type     EventType
	Key      string
	Kind     spec.Kind
	Value    []byte // serialized object; nil for deletes
	Revision int64
}

// KV is a key with its stored bytes.
type KV struct {
	Key      string
	Kind     spec.Kind
	Value    []byte
	Revision int64
}

// Options configure a Store.
type Options struct {
	// QuotaBytes bounds the database size; writes fail with ErrNoSpace past
	// it. Zero means the scaled default (512 KB, standing in for etcd's
	// quota in the same ratio as the rest of the simulated capacities).
	QuotaBytes int64
	// MaxValueBytes bounds one value. Zero means 64 KB.
	MaxValueBytes int64
}

// watchLatency is the delay before watch events reach watchers.
const watchLatency = time.Millisecond

func (o *Options) withDefaults() Options {
	out := Options{QuotaBytes: 512 << 10, MaxValueBytes: 64 << 10}
	if o == nil {
		return out
	}
	if o.QuotaBytes > 0 {
		out.QuotaBytes = o.QuotaBytes
	}
	if o.MaxValueBytes > 0 {
		out.MaxValueBytes = o.MaxValueBytes
	}
	return out
}

// Store is one replica of the data store; Replicated joins one or more of
// them into the cluster's store. All methods must be called from the
// simulation loop; watch callbacks are delivered asynchronously on the loop.
type Store struct {
	loop  *sim.Loop
	opts  Options
	items map[string]*item
	// restored backs the items a snapshot restore installs: one array per
	// restore instead of one allocation per key, reused by the next restore
	// of a Reset store (nothing else points into it once items is cleared).
	restored []item
	// sorted is the (key-sorted, immutable) item list of the snapshot the
	// store was last restored from, for as long as no write, delete or
	// rewrite has touched the store since: List then walks it instead of
	// collecting and sorting the map's keys — the re-list every API server
	// performs right after a restore, 1,500 keys at 500 nodes.
	sorted []ItemSnapshot
	rev    int64
	size   int64
	// watchers holds the live registrations in registration order — ascending
	// seq — so deliver hands an event out deterministically (map iteration
	// would randomize the order of same-tick events between runs). A cancel
	// takes its watcher out at once; nextSeq is the seq the next registration
	// draws.
	watchers []*watcher
	nextSeq  int

	// Batched delivery: notify queues one pendingEvent and schedules
	// deliverFn (built once) after the watch latency; the fired event hands
	// the queue's front entry to every watcher registered at notify time.
	// Same commit order, same per-watcher order as the former
	// one-closure-per-(event, watcher) scheduling, without the closure.
	// The API server's fan-out (Server.pending / fanout) follows the same
	// rule: a queued event carries the seq the next registration would have
	// drawn, and only registrations below it hear the event.
	pendingEv   []pendingEvent
	pendingHead int
	deliverFn   func()
	// deliverScratch backs the receiver list of the delivery in progress.
	deliverScratch []*watcher
}

type item struct {
	kind      spec.Kind
	value     []byte
	createRev int64
	modRev    int64
}

type watcher struct {
	prefix    string
	fn        func(Event)
	seq       int // registration order: registrations before it since New or Reset
	cancelled bool
}

// pendingEvent is one committed change awaiting delivery: the event plus the
// seq the next registration would have drawn at notify time, so watchers
// registered between commit and delivery do not receive it.
type pendingEvent struct {
	ev    Event
	limit int
}

// New returns an empty store bound to the simulation loop.
func New(loop *sim.Loop, opts *Options) *Store {
	s := &Store{
		loop:  loop,
		opts:  opts.withDefaults(),
		items: make(map[string]*item),
	}
	s.deliverFn = s.deliver
	return s
}

// Reset empties the store to the state New left it in — no keys, revision
// zero, no subscribers — keeping the memory of its tables
// for the next restore. Whoever subscribed re-subscribes (the API server does
// in its own Reset); every earlier registration counts as cancelled, so a
// late cancel is a no-op. Events committed but not yet delivered are dropped
// with the loop events that would have delivered them: reset the loop first.
func (s *Store) Reset() {
	clear(s.items)
	clear(s.restored)
	s.sorted = nil
	s.rev, s.size = 0, 0
	for _, w := range s.watchers {
		w.cancelled = true
	}
	clear(s.watchers)
	s.watchers = s.watchers[:0]
	s.nextSeq = 0
	clear(s.pendingEv)
	s.pendingEv = s.pendingEv[:0]
	s.pendingHead = 0
}

// Revision returns the latest committed revision.
func (s *Store) Revision() int64 { return s.rev }

// Len returns the number of stored keys.
func (s *Store) Len() int { return len(s.items) }

// SizeBytes returns the current database size.
func (s *Store) SizeBytes() int64 { return s.size }

// QuotaExceeded reports whether the store is refusing writes.
func (s *Store) QuotaExceeded() bool { return s.size > s.opts.QuotaBytes }

// Put stores value under key and notifies watchers. The value is stored
// verbatim: corruption introduced upstream is preserved and observed by
// every component, exactly like a faulty transaction committed to etcd.
//
// Copy-on-write discipline: Put copies the caller's bytes exactly once into a
// fresh backing array (callers commonly pass reused encode buffers), and that
// array becomes *immutable* — the watch event, every Get/List, and snapshot
// capture all share it by reference. Overwrites install a new array instead
// of scribbling over the old one, so readers holding the previous revision
// keep a consistent view.
func (s *Store) Put(key string, kind spec.Kind, value []byte) (int64, error) {
	if err := s.admits(value); err != nil {
		return 0, err
	}
	return s.install(key, kind, append([]byte(nil), value...)), nil
}

// putOwned is Put minus the defensive copy, for callers that guarantee the
// backing array of value is immutable and never reused — the replication
// fan-out copies an accepted op's payload exactly once and installs that one
// array at every replica (and in every catch-up queue). Callers passing
// reused buffers must use Put.
func (s *Store) putOwned(key string, kind spec.Kind, value []byte) (int64, error) {
	if err := s.admits(value); err != nil {
		return 0, err
	}
	return s.install(key, kind, value), nil
}

// admits reports why the store would refuse a write of value, nil if it
// would take it: a value over the per-request limit, or a store over quota.
func (s *Store) admits(value []byte) error {
	if int64(len(value)) > s.opts.MaxValueBytes {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(value))
	}
	if s.QuotaExceeded() {
		return ErrNoSpace
	}
	return nil
}

// install commits stored (already owned by the store) under key and notifies
// watchers.
func (s *Store) install(key string, kind spec.Kind, stored []byte) int64 {
	s.sorted = nil
	s.rev++
	it, exists := s.items[key]
	if exists {
		s.size -= int64(len(it.value))
		it.value = stored
		it.modRev = s.rev
		it.kind = kind
	} else {
		s.items[key] = &item{
			kind:      kind,
			value:     stored,
			createRev: s.rev,
			modRev:    s.rev,
		}
		s.size += int64(len(key))
	}
	s.size += int64(len(stored))
	s.notify(Event{Type: EventPut, Key: key, Kind: kind, Value: stored, Revision: s.rev})
	return s.rev
}

// Get returns the stored bytes for key. The value is a sealed reference to
// the immutable stored array — callers must not mutate it (CorruptAtRest is
// the one sanctioned mutation path, and it replaces the array).
func (s *Store) Get(key string) (KV, bool) {
	it, ok := s.items[key]
	if !ok {
		return KV{}, false
	}
	return KV{Key: key, Kind: it.kind, Value: it.value, Revision: it.modRev}, true
}

// Delete removes key, notifying watchers. Deletes succeed even past quota so
// that the system can always shed state.
func (s *Store) Delete(key string) bool {
	it, ok := s.items[key]
	if !ok {
		return false
	}
	s.sorted = nil
	s.rev++
	s.size -= int64(len(it.value)) + int64(len(key))
	delete(s.items, key)
	s.notify(Event{Type: EventDelete, Key: key, Kind: it.kind, Revision: s.rev})
	return true
}

// List returns all entries under prefix in key order. Values are sealed
// references under the same read-only contract as Get.
func (s *Store) List(prefix string) []KV {
	if s.sorted != nil {
		out := make([]KV, 0, len(s.sorted))
		for _, it := range s.sorted {
			if strings.HasPrefix(it.Key, prefix) {
				out = append(out, KV{Key: it.Key, Kind: it.Kind, Value: it.Value, Revision: it.ModRev})
			}
		}
		return out
	}
	var out []KV
	for key, it := range s.items {
		if strings.HasPrefix(key, prefix) {
			out = append(out, KV{Key: key, Kind: it.kind, Value: it.value, Revision: it.modRev})
		}
	}
	sortKVs(out)
	return out
}

// Watch registers fn for changes to keys under prefix. Events are delivered
// asynchronously on the simulation loop in commit order.
func (s *Store) Watch(prefix string, fn func(Event)) (cancel func()) {
	w := &watcher{prefix: prefix, fn: fn, seq: s.nextSeq}
	s.nextSeq++
	s.watchers = append(s.watchers, w)
	return func() {
		if w.cancelled {
			return
		}
		w.cancelled = true
		i, _ := slices.BinarySearchFunc(s.watchers, w.seq, func(x *watcher, seq int) int { return cmp.Compare(x.seq, seq) })
		s.watchers = slices.Delete(s.watchers, i, i+1)
	}
}

// CorruptAtRest silently corrupts the stored bytes of key without bumping the
// revision or notifying watchers (the §V-C1 ablation: such corruption hides
// behind the API server's watch cache until a refresh happens). The mutate
// callback receives a private copy and the result becomes a new backing
// array, honoring the copy-on-write discipline — readers and snapshots that
// alias the old array keep the uncorrupted bytes, exactly like a disk-level
// flip that postdates a backup. The new array is also what tells the API
// server's decode cache, which knows stored arrays by address, that these are
// not the bytes it decoded.
func (s *Store) CorruptAtRest(key string, mutate func([]byte) []byte) bool {
	it, ok := s.items[key]
	if !ok {
		return false
	}
	s.sorted = nil
	s.size -= int64(len(it.value))
	it.value = mutate(append([]byte(nil), it.value...))
	s.size += int64(len(it.value))
	return true
}

func (s *Store) notify(ev Event) {
	if len(s.watchers) == 0 {
		return
	}
	s.pendingEv = append(s.pendingEv, pendingEvent{ev: ev, limit: s.nextSeq})
	s.loop.After(watchLatency, s.deliverFn)
}

// deliver hands the front pending event to every watcher registered at
// notify time, in registration order — the same delivery order as scheduling
// one closure per (event, watcher), at one loop event and zero closures per
// commit. The receivers are listed before the first callback runs: a callback
// may cancel a watch, which edits the very list being walked.
func (s *Store) deliver() {
	pe := s.pendingEv[s.pendingHead]
	s.pendingEv[s.pendingHead] = pendingEvent{}
	s.pendingHead++
	if s.pendingHead == len(s.pendingEv) {
		s.pendingEv = s.pendingEv[:0]
		s.pendingHead = 0
	}
	recv := s.deliverScratch[:0]
	s.deliverScratch = nil // a delivery nested in a callback takes its own
	for _, w := range s.watchers {
		if w.seq >= pe.limit {
			break
		}
		if strings.HasPrefix(pe.ev.Key, w.prefix) {
			recv = append(recv, w)
		}
	}
	for _, w := range recv {
		if !w.cancelled {
			w.fn(pe.ev)
		}
	}
	clear(recv)
	s.deliverScratch = recv[:0]
}

func sortKVs(kvs []KV) {
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
}
