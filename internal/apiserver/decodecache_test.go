package apiserver

import (
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// Reads of stored entries — on the write path (conflict checks), watch
// ingest, and cache rebuilds — decode nothing for an untampered write, whose
// store entry is its sealed object, and decode a bytes entry's array once,
// through the decode cache. These tests pin down the contract: no decode for
// object entries, hits for the very array a cache entry decoded at the
// revision it is stamped with, real decodes after any byte-level fault
// (tampered store writes, at-rest corruption), and sealed (immutable)
// objects. DecodeCacheStats counts a read that needed no decode, from either
// source, as a hit. The campaign-level seal guard
// (TestSealedObjectsAreNeverMutated) covers the same objects end to end:
// every object a reader is served passes through spec.Seal, so the guard's
// seal hook checksums it and proves nothing mutates it afterwards.

// settle drains the store watch latency so writes reach the watch cache.
func settle(loop *sim.Loop) {
	loop.RunUntil(loop.Now() + 50*time.Millisecond)
}

func TestDecodeCacheHitsOnWritePath(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	hits0, misses0, _ := srv.DecodeCacheStats()
	if misses0 != 0 {
		t.Fatalf("untampered create performed %d real decodes, want 0 (the store holds its object)", misses0)
	}
	if hits0 == 0 {
		t.Fatal("watch ingest of the create was not counted as a read without a decode")
	}

	// An update's conflict check reads the current object from the backend;
	// the stored object entry serves it without a decode.
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	upd := spec.CloneForWriteAs(obj.(*spec.Pod))
	upd.Metadata.Annotations = map[string]string{"touch": "1"}
	if err := c.Update(upd); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	hits1, misses1, _ := srv.DecodeCacheStats()
	if misses1 != misses0 {
		t.Fatalf("update performed %d real decodes, want 0", misses1-misses0)
	}
	if hits1 <= hits0 {
		t.Fatal("update's conflict check was not counted as a read without a decode")
	}
}

// Untampered writes leave sealed objects in the store, stamped with the
// revision each is stored at, and no decode-cache entry; a tampered one's
// bytes are decoded once, into an entry that is sealed and tagged with the
// revision and the very array the store holds.
func TestDecodeCacheEntriesAreSealedAndRevisionTagged(t *testing.T) {
	loop, st, srv := newTestServer(t)
	c := srv.ClientFor("test")
	for _, name := range []string{"web-1", "web-2", "web-3"} {
		if err := c.Create(testPod(name)); err != nil {
			t.Fatal(err)
		}
	}
	settle(loop)
	if len(srv.decoded) != 0 {
		t.Fatalf("untampered writes left %d decode-cache entries, want none", len(srv.decoded))
	}
	for _, kv := range st.List("/registry/") {
		obj := kv.Object()
		if obj == nil {
			t.Errorf("%s: an untampered write stored bytes, not its object", kv.Key)
			continue
		}
		if !obj.Meta().Sealed() || obj.Meta().ResourceVersion != kv.Revision {
			t.Errorf("%s: stored object sealed=%v at rv %d, store mod revision %d", kv.Key, obj.Meta().Sealed(), obj.Meta().ResourceVersion, kv.Revision)
		}
	}

	tamperCreates(srv)
	if err := c.Create(testPod("web-4")); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	if len(srv.decoded) != 1 {
		t.Fatalf("a tampered write left %d decode-cache entries, want 1", len(srv.decoded))
	}
	for key, e := range srv.decoded {
		obj := e.obj
		if !obj.Meta().Sealed() {
			t.Errorf("decode-cache entry %s is not sealed", key)
		}
		kv, ok := st.Get(key)
		if !ok {
			t.Errorf("decode-cache entry %s has no backing store key", key)
			continue
		}
		if obj.Meta().ResourceVersion != kv.Revision {
			t.Errorf("entry %s tagged rv %d, store mod revision %d",
				key, obj.Meta().ResourceVersion, kv.Revision)
		}
		if e.src != &kv.Value[0] {
			t.Errorf("entry %s is not tagged with the array the store holds", key)
		}
	}
}

// At-rest corruption is detected where it matters, at the next read of the
// bytes: they are a bytes entry now, so the read decodes them for real —
// exactly like a server with no cache. Rewritten again at the same revision,
// they present another array than the cached decode's: the lookup misses and
// counts one detected rewrite. Nothing is invalidated eagerly.
func TestDecodeCacheInvalidatedByCorruptAtRest(t *testing.T) {
	loop, st, srv := newTestServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")

	ok := st.CorruptAtRest(key, func(b []byte) []byte {
		obj := spec.New(spec.KindPod)
		if err := codecUnmarshal(b, obj); err != nil {
			t.Fatal(err)
		}
		obj.(*spec.Pod).Spec.NodeName = "corrupted-node"
		return mustMarshal(obj)
	})
	if !ok {
		t.Fatal("CorruptAtRest = false")
	}
	if _, _, rewrites := srv.DecodeCacheStats(); rewrites != 0 {
		t.Fatalf("rewrites = %d right after CorruptAtRest, want 0 (nothing has read the bytes yet)", rewrites)
	}

	// The write path reads the backend: it must decode the corrupted bytes
	// for real. The object entry they replaced was never decoded, so nothing
	// cached at this revision goes stale: no rewrite.
	_, misses0, _ := srv.DecodeCacheStats()
	cur, exists, err := srv.current(spec.KindPod, key)
	if err != nil || !exists {
		t.Fatalf("current() = exists %v, err %v", exists, err)
	}
	if got := cur.(*spec.Pod).Spec.NodeName; got != "corrupted-node" {
		t.Fatalf("current() served NodeName %q for corrupted bytes, want \"corrupted-node\"", got)
	}
	if _, misses, rewrites := srv.DecodeCacheStats(); misses != misses0+1 || rewrites != 0 {
		t.Fatalf("after the next read: %d new real decodes, %d rewrites detected; want 1 and 0", misses-misses0, rewrites)
	}
	// The cache now holds the corrupted array's decode: the next read hits.
	if _, _, err := srv.current(spec.KindPod, key); err != nil {
		t.Fatal(err)
	}
	if _, misses, rewrites := srv.DecodeCacheStats(); misses != misses0+1 || rewrites != 0 {
		t.Fatalf("second read of the same bytes decoded again (%d misses, %d rewrites)", misses-misses0, rewrites)
	}
	// Rewritten again at the same revision, the bytes present another array
	// than the cached decode's: one rewrite detected, one real decode.
	st.CorruptAtRest(key, func(b []byte) []byte {
		obj := spec.New(spec.KindPod)
		if err := codecUnmarshal(b, obj); err != nil {
			t.Fatal(err)
		}
		obj.(*spec.Pod).Spec.NodeName = "corrupted-again"
		return mustMarshal(obj)
	})
	cur, _, err = srv.current(spec.KindPod, key)
	if err != nil || cur.(*spec.Pod).Spec.NodeName != "corrupted-again" {
		t.Fatalf("current() after the second rewrite = %v, %v", cur, err)
	}
	if _, misses, rewrites := srv.DecodeCacheStats(); misses != misses0+2 || rewrites != 1 {
		t.Fatalf("after the second rewrite: %d new real decodes, %d rewrites detected; want 2 and 1", misses-misses0, rewrites)
	}
}

// TestDecodeCacheNeverServesStaleAcrossCorruptAtRestAndRestart is the
// stale-object acceptance test: at-rest corruption followed by an apiserver
// restart must surface the corrupted bytes (§V-C1), never the cached
// pre-corruption decode.
func TestDecodeCacheNeverServesStaleAcrossCorruptAtRestAndRestart(t *testing.T) {
	loop, st, srv := newTestServer(t)
	c := srv.ClientFor("test")
	pod := testPod("web-1")
	pod.Spec.NodeName = "node-1"
	if err := c.Create(pod); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")

	st.CorruptAtRest(key, func(b []byte) []byte {
		obj := spec.New(spec.KindPod)
		if err := codecUnmarshal(b, obj); err != nil {
			t.Fatal(err)
		}
		obj.(*spec.Pod).Spec.NodeName = "flipped-node"
		return mustMarshal(obj)
	})

	// Masked until a cache refresh: the watch cache still serves the old
	// object (the §V-C1 semantics the cache must not break).
	got, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	if got.(*spec.Pod).Spec.NodeName != "node-1" {
		t.Fatalf("corruption visible before restart: NodeName = %q", got.(*spec.Pod).Spec.NodeName)
	}

	srv.Restart()
	settle(loop)
	got, err = c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	if got.(*spec.Pod).Spec.NodeName != "flipped-node" {
		t.Fatalf("restart served a stale decode: NodeName = %q, want \"flipped-node\"", got.(*spec.Pod).Spec.NodeName)
	}
}

// Regression: a watch event in flight across a CorruptAtRest carries the
// *pre-corruption* bytes under the current revision. Its ingest is served
// the decode of the array it carries, which must not stand in for the
// corrupted array the store now holds (that would resurrect the clean object
// and mask the corruption past every future restart).
func TestDecodeCacheNotRepoisonedByInFlightWatchEvent(t *testing.T) {
	loop, st, srv := newTestServer(t)
	c := srv.ClientFor("test")
	pod := testPod("web-1")
	pod.Spec.NodeName = "node-1"
	if err := c.Create(pod); err != nil {
		t.Fatal(err)
	}
	// Do NOT settle: the create's watch event (clean bytes) is still in
	// flight when the corruption lands.
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
	st.CorruptAtRest(key, func(b []byte) []byte {
		obj := spec.New(spec.KindPod)
		if err := codecUnmarshal(b, obj); err != nil {
			t.Fatal(err)
		}
		obj.(*spec.Pod).Spec.NodeName = "flipped-node"
		return mustMarshal(obj)
	})
	settle(loop) // the stale clean-bytes event now delivers

	// The watch cache legitimately masks the corruption (the event predates
	// it)...
	got, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	if got.(*spec.Pod).Spec.NodeName != "node-1" {
		t.Fatalf("pre-restart read = %q, want the event's clean \"node-1\"", got.(*spec.Pod).Spec.NodeName)
	}
	// ...but a restart must reveal it: the re-list presents the corrupted
	// array, which no entry decodes.
	srv.Restart()
	settle(loop)
	got, err = c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	if got.(*spec.Pod).Spec.NodeName != "flipped-node" {
		t.Fatalf("restart served a stale decode: NodeName = %q, want \"flipped-node\"", got.(*spec.Pod).Spec.NodeName)
	}

	// The next real write stores its object again, and watch ingest decodes
	// nothing.
	upd := spec.CloneForWriteAs(got.(*spec.Pod))
	upd.Metadata.Annotations = map[string]string{"repaired": "1"}
	if err := c.Update(upd); err != nil {
		t.Fatal(err)
	}
	_, missesBefore, _ := srv.DecodeCacheStats()
	settle(loop)
	if _, misses, _ := srv.DecodeCacheStats(); misses != missesBefore {
		t.Fatalf("post-repair watch ingest decoded for real (%d new misses), want none", misses-missesBefore)
	}
}

// Tampered store-channel writes must not be stored as the pre-tamper object:
// the next read has to decode the bytes that actually reached the store.
func TestDecodeCacheSkipsTamperedStoreWrites(t *testing.T) {
	loop, _, srv := newTestServer(t)
	srv.SetStoreWriteHook(func(m *Message) Action {
		if m.Verb != VerbCreate {
			return Pass
		}
		obj := spec.New(m.Kind)
		if err := codecUnmarshal(m.Encoded(), obj); err != nil {
			return Pass
		}
		obj.(*spec.Pod).Spec.NodeName = "tampered-node"
		m.Data = mustMarshal(obj)
		m.Tampered = true
		return Pass
	})
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	settle(loop)

	_, misses, _ := srv.DecodeCacheStats()
	if misses == 0 {
		t.Fatal("tampered write was served from the decode cache (no real decode happened)")
	}
	got, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	if got.(*spec.Pod).Spec.NodeName != "tampered-node" {
		t.Fatalf("watch cache holds NodeName %q, want the tampered bytes' \"tampered-node\"", got.(*spec.Pod).Spec.NodeName)
	}
}

// A restored server (the fork path) rebuilds its watch cache from the
// snapshot's stored objects without decoding anything.
func TestDecodeCacheSharedThroughSnapshotRestore(t *testing.T) {
	loop := sim.NewLoop(1)
	st := store.NewReplicated(loop, 1, nil)
	cp := NewControlPlane(loop, st, nil, nil)
	srv := cp.Servers[0]
	c := srv.ClientFor("test")
	for _, name := range []string{"web-1", "web-2", "web-3"} {
		if err := c.Create(testPod(name)); err != nil {
			t.Fatal(err)
		}
	}
	settle(loop)
	planeSnap := cp.Snapshot()
	storeSnap := st.Snapshot()

	loop2 := sim.NewLoop(2)
	st2 := store.NewReplicated(loop2, 1, nil)
	st2.Restore(storeSnap)
	cp2 := NewControlPlane(loop2, st2, nil, nil)
	cp2.Restore(planeSnap)
	srv2 := cp2.Servers[0]

	hits, misses, _ := srv2.DecodeCacheStats()
	if misses != 0 {
		t.Fatalf("fork rebuild performed %d real decodes, want 0 (snapshot carries the stored objects)", misses)
	}
	if hits == 0 {
		t.Fatal("fork rebuild was not counted as reads without a decode")
	}
	if srv2.CacheLen() != srv.CacheLen() {
		t.Fatalf("fork watch cache has %d objects, source has %d", srv2.CacheLen(), srv.CacheLen())
	}
	// The shared entries serve reads in the fork.
	got, err := srv2.ClientFor("fork").Get(spec.KindPod, spec.DefaultNamespace, "web-2")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Meta().Sealed() {
		t.Fatal("fork serves an unsealed object")
	}
}

// Round-trip soundness of object entries: the stored object must be
// field-for-field what a real decode of the entry's bytes would produce —
// decode them, stamp the mod revision (as every decode path does), and the
// two objects must re-encode identically.
func TestDecodeCachePrimedObjectMatchesRealDecode(t *testing.T) {
	loop, st, srv := newTestServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
	kv, _ := st.Get(key)
	if kv.Object() == nil {
		t.Fatal("the write did not store its object")
	}
	reenc, err := codec.Marshal(kv.Object())
	if err != nil {
		t.Fatal(err)
	}
	fresh := spec.New(spec.KindPod)
	if err := codec.Unmarshal(kv.Bytes(), fresh); err != nil {
		t.Fatal(err)
	}
	fresh.Meta().ResourceVersion = kv.Revision
	refresh, err := codec.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if string(refresh) != string(reenc) {
		t.Fatal("a real decode would produce a different object than the stored one")
	}
}
