// Package store implements the cluster data store: a revisioned, watchable
// key-value store holding the serialized state of every resource instance.
//
// It mirrors the etcd properties the paper's injection methodology relies on
// (§II-C, §IV-A): all cluster state is confined here, making it the
// dependability bottleneck; a corrupted transaction is stored verbatim, so
// every observer sees the same wrong value; and a store that runs out of
// space stops accepting writes, which is the terminal phase of the paper's
// uncontrolled-replication failures ("eventually, the disk of the control
// plane Node can fill up, stalling Etcd").
//
// A value is an Entry, and an entry holds one of two things. An object entry
// is the sealed object an untampered API server write persisted: its bytes —
// the encoding the server would have sent, at the resourceVersion its writer
// saw — are made only when a reader asks (Entry.Bytes), and its size is their
// exact length. A bytes entry holds opaque serialized bytes verbatim: a write
// a request- or store-channel fault tampered with, bytes rewritten at rest,
// anything Put stores. Either way the quota counts encoded bytes.
package store

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/mutiny-sim/mutiny/internal/codec"
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

// Event types.
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

// Entry is one stored value: an object entry or a bytes entry (see the
// package doc). It is a value — replication, catch-up queues, events and
// snapshots carry it by value — and immutable: an object entry's object is
// sealed, and a bytes entry's array is never written once the store holds it.
type Entry struct {
	// Value is a bytes entry's bytes, nil in an object entry; Bytes returns
	// either's.
	Value []byte
	// obj is an object entry's sealed object, nil in a bytes entry; wireRV is
	// the resourceVersion its bytes carry (the one its writer saw — obj is
	// stamped with the revision the write committed at), and size their
	// length.
	obj    spec.Object
	wireRV int64
	size   int64
}

// ObjectEntry returns the object entry of obj, whose encoding at wireRV is
// size bytes long. obj must be sealed before anything reads the entry, and
// stamped then with the revision the write committed at.
func ObjectEntry(obj spec.Object, wireRV, size int64) Entry {
	return Entry{obj: obj, wireRV: wireRV, size: size}
}

// Object returns an object entry's sealed object, nil for a bytes entry.
func (e Entry) Object() spec.Object { return e.obj }

// Size returns the length of the entry's bytes, without making them.
func (e Entry) Size() int64 {
	if e.obj != nil {
		return e.size
	}
	return int64(len(e.Value))
}

// Bytes returns the entry's bytes: a bytes entry's own array, or, for an
// object entry, a fresh encoding of its object at the resourceVersion its
// writer saw — byte for byte what the API server would have stored.
func (e Entry) Bytes() []byte {
	if e.obj == nil {
		return e.Value
	}
	enc, err := codec.Marshal(e.obj)
	if err != nil {
		return nil // cannot happen: the writer sized the object with codec.Size
	}
	out, ok := codec.AppendPrefixWithRV(make([]byte, 0, e.size), enc, e.wireRV)
	if !ok {
		return nil // cannot happen: every object encoding starts with its metadata
	}
	return out
}

// Same reports whether e and o hold the same bytes, making them only when the
// two are not one write's object entry.
func (e Entry) Same(o Entry) bool {
	if e.obj != nil && e.obj == o.obj {
		return true
	}
	return string(e.Bytes()) == string(o.Bytes())
}

// Event describes one committed change; its entry is zero for a delete.
type Event struct {
	Type EventType
	Key  string
	Kind spec.Kind
	Entry
	Revision int64
}

// KV is a key with its stored entry.
type KV struct {
	Key  string
	Kind spec.Kind
	Entry
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

// watchLatency is the delay before an event reaches the subscriber.
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
// simulation loop; events are delivered asynchronously on the loop.
type Store struct {
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
	// sub is the store's one subscription — the API server bound to this
	// replica — or nil. A subscription is known by its address: a pending
	// event carries the one it was committed under and is delivered only
	// while that is still the store's, so a cancel, a resubscription or a
	// Reset drops whatever was committed before it.
	sub *subscription
	// pending carries each committed change to its subscription after the
	// watch latency: one loop event and no closure per commit.
	pending *sim.Queue[pendingEvent]
}

type item struct {
	kind      spec.Kind
	entry     Entry
	createRev int64
	modRev    int64
}

type subscription struct{ fn func(Event) }

// pendingEvent is one committed change awaiting delivery, with the
// subscription it was committed under.
type pendingEvent struct {
	ev  Event
	sub *subscription
}

// New returns an empty store bound to the simulation loop.
func New(loop *sim.Loop, opts *Options) *Store {
	s := &Store{
		opts:  opts.withDefaults(),
		items: make(map[string]*item),
	}
	s.pending = sim.NewQueue(loop, watchLatency, s.deliver)
	return s
}

// Reset empties the store to the state New left it in — no keys, revision
// zero, no subscription — keeping the memory of its tables for the next
// restore. The subscriber re-subscribes (the API server does in its own
// Reset); a cancel from before the Reset is a no-op. Events committed but not
// yet delivered are dropped: their subscription is no longer the store's, and
// Loop.Reset empties the queue that holds them.
func (s *Store) Reset() {
	clear(s.items)
	clear(s.restored)
	s.sorted = nil
	s.rev, s.size = 0, 0
	s.sub = nil
}

// Revision returns the latest committed revision.
func (s *Store) Revision() int64 { return s.rev }

// Len returns the number of stored keys.
func (s *Store) Len() int { return len(s.items) }

// SizeBytes returns the current database size.
func (s *Store) SizeBytes() int64 { return s.size }

// QuotaExceeded reports whether the store is refusing writes.
func (s *Store) QuotaExceeded() bool { return s.size > s.opts.QuotaBytes }

// Put stores value under key as a bytes entry and notifies the subscriber.
// The value is stored verbatim: corruption introduced upstream is preserved
// and observed by every component, exactly like a faulty transaction
// committed to etcd.
//
// Copy-on-write discipline: Put copies the caller's bytes exactly once into a
// fresh backing array (callers commonly pass reused encode buffers), and that
// array becomes *immutable* — the watch event, every Get/List, and snapshot
// capture all share it by reference. Overwrites install a new array instead
// of scribbling over the old one, so readers holding the previous revision
// keep a consistent view.
func (s *Store) Put(key string, kind spec.Kind, value []byte) (int64, error) {
	if err := s.admits(int64(len(value))); err != nil {
		return 0, err
	}
	return s.install(key, kind, Entry{Value: append([]byte(nil), value...)}), nil
}

// putOwned stores an entry the store already owns — the replication fan-out
// installs one accepted entry at every replica (and in every catch-up queue).
func (s *Store) putOwned(key string, kind spec.Kind, e Entry) (int64, error) {
	if err := s.admits(e.Size()); err != nil {
		return 0, err
	}
	return s.install(key, kind, e), nil
}

// admits reports why the store would refuse a write of size encoded bytes,
// nil if it would take it: a value over the per-request limit, or a store
// over quota. The errors are the bare sentinels, so a refusal allocates
// nothing.
func (s *Store) admits(size int64) error {
	if size > s.opts.MaxValueBytes {
		return ErrTooLarge
	}
	if s.QuotaExceeded() {
		return ErrNoSpace
	}
	return nil
}

// install commits e (already owned by the store) under key and notifies the
// subscriber.
func (s *Store) install(key string, kind spec.Kind, e Entry) int64 {
	s.sorted = nil
	s.rev++
	it, exists := s.items[key]
	if exists {
		s.size -= it.entry.Size()
		it.entry = e
		it.modRev = s.rev
		it.kind = kind
	} else {
		s.items[key] = &item{
			kind:      kind,
			entry:     e,
			createRev: s.rev,
			modRev:    s.rev,
		}
		s.size += int64(len(key))
	}
	s.size += e.Size()
	s.notify(Event{Type: EventPut, Key: key, Kind: kind, Entry: e, Revision: s.rev})
	return s.rev
}

// Get returns the entry stored under key. A bytes entry's Value is a sealed
// reference to the immutable stored array — callers must not mutate it
// (CorruptAtRest is the one sanctioned mutation path, and it replaces the
// entry).
func (s *Store) Get(key string) (KV, bool) {
	it, ok := s.items[key]
	if !ok {
		return KV{}, false
	}
	return KV{Key: key, Kind: it.kind, Entry: it.entry, Revision: it.modRev}, true
}

// Delete removes key, notifying the subscriber. Deletes succeed even past quota so
// that the system can always shed state.
func (s *Store) Delete(key string) bool {
	it, ok := s.items[key]
	if !ok {
		return false
	}
	s.sorted = nil
	s.rev++
	s.size -= it.entry.Size() + int64(len(key))
	delete(s.items, key)
	s.notify(Event{Type: EventDelete, Key: key, Kind: it.kind, Revision: s.rev})
	return true
}

// List returns all entries under prefix in key order, under the same
// read-only contract as Get.
func (s *Store) List(prefix string) []KV {
	if s.sorted != nil {
		out := make([]KV, 0, len(s.sorted))
		for _, it := range s.sorted {
			if strings.HasPrefix(it.Key, prefix) {
				out = append(out, KV{Key: it.Key, Kind: it.Kind, Entry: it.Entry, Revision: it.ModRev})
			}
		}
		return out
	}
	var out []KV
	for key, it := range s.items {
		if strings.HasPrefix(key, prefix) {
			out = append(out, KV{Key: key, Kind: it.kind, Entry: it.entry, Revision: it.modRev})
		}
	}
	sortKVs(out)
	return out
}

// Subscribe makes fn the store's one subscriber, in place of any earlier
// one: every change committed from now on is delivered to it asynchronously
// on the simulation loop, in commit order. cancel ends the subscription and
// drops what is still in flight to it; once another subscription or a Reset
// has replaced it, cancel is a no-op.
func (s *Store) Subscribe(fn func(Event)) (cancel func()) {
	sub := &subscription{fn: fn}
	s.sub = sub
	return func() {
		if s.sub == sub {
			s.sub = nil
		}
	}
}

// CorruptAtRest silently corrupts the stored bytes of key without bumping the
// revision or notifying the subscriber (the §V-C1 ablation: such corruption hides
// behind the API server's watch cache until a refresh happens). The mutate
// callback receives a private copy of the entry's bytes, and the result
// becomes a new bytes entry, honoring the copy-on-write discipline — readers
// and snapshots that hold the old entry keep the uncorrupted value, exactly
// like a disk-level flip that postdates a backup. The new array is also what
// tells the API server's decode cache, which knows stored arrays by address,
// that these are not the bytes it decoded.
func (s *Store) CorruptAtRest(key string, mutate func([]byte) []byte) bool {
	it, ok := s.items[key]
	if !ok {
		return false
	}
	s.sorted = nil
	s.size -= it.entry.Size()
	it.entry = Entry{Value: mutate(append([]byte(nil), it.entry.Bytes()...))}
	s.size += it.entry.Size()
	return true
}

func (s *Store) notify(ev Event) {
	if s.sub == nil {
		return
	}
	s.pending.Put(pendingEvent{ev: ev, sub: s.sub})
}

// deliver hands a pending event to the subscription it was committed under,
// if that is still the store's.
func (s *Store) deliver(pe pendingEvent) {
	if pe.sub == s.sub {
		pe.sub.fn(pe.ev)
	}
}

func sortKVs(kvs []KV) {
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
}
