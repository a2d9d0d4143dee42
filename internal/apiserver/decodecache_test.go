package apiserver

import (
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// The decode cache elides backend-byte decodes on the write path (conflict
// checks), watch ingest, and cache rebuilds. These tests pin down the
// contract: hits for the very array an entry decoded at the revision it is
// stamped with, real decodes after any byte-level fault (tampered store
// writes, at-rest corruption), and sealed (immutable) entries. The campaign-level seal guard
// (TestSealedObjectsAreNeverMutated) covers the same entries end to end:
// every object entering the cache passes through spec.Seal, so the guard's
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
		t.Fatalf("untampered create performed %d real decodes, want 0 (write path should prime the cache)", misses0)
	}
	if hits0 == 0 {
		t.Fatal("watch ingest of the create did not hit the decode cache")
	}

	// An update's conflict check reads the current object from the backend;
	// with the cache primed it must not decode.
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
		t.Fatal("update's conflict check did not hit the decode cache")
	}
}

func TestDecodeCacheEntriesAreSealedAndRevisionTagged(t *testing.T) {
	loop, st, srv := newTestServer(t)
	c := srv.ClientFor("test")
	for _, name := range []string{"web-1", "web-2", "web-3"} {
		if err := c.Create(testPod(name)); err != nil {
			t.Fatal(err)
		}
	}
	settle(loop)
	if len(srv.decoded.entries) == 0 {
		t.Fatal("decode cache is empty after writes")
	}
	for key, e := range srv.decoded.entries {
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
// bytes: same revision, another array, so the lookup misses, decodes the
// corrupted bytes for real — exactly like a server with no cache — and counts
// one detected rewrite. Nothing is invalidated eagerly.
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
	// for real.
	_, misses0, _ := srv.DecodeCacheStats()
	cur, prefix, exists, err := srv.current(spec.KindPod, key)
	if err != nil || !exists {
		t.Fatalf("current() = exists %v, err %v", exists, err)
	}
	if got := cur.(*spec.Pod).Spec.NodeName; got != "corrupted-node" {
		t.Fatalf("current() served NodeName %q for corrupted bytes, want \"corrupted-node\"", got)
	}
	if prefix != nil {
		t.Fatal("current() offered a splice prefix of bytes rewritten at rest")
	}
	if _, misses, rewrites := srv.DecodeCacheStats(); misses != misses0+1 || rewrites != 1 {
		t.Fatalf("after the next read: %d new real decodes, %d rewrites detected; want 1 and 1", misses-misses0, rewrites)
	}
	// The entry now decodes the corrupted array: the next read hits.
	if _, _, _, err := srv.current(spec.KindPod, key); err != nil {
		t.Fatal(err)
	}
	if _, misses, rewrites := srv.DecodeCacheStats(); misses != misses0+1 || rewrites != 1 {
		t.Fatalf("second read of the same bytes decoded again (%d misses, %d rewrites)", misses-misses0, rewrites)
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

	// The next real write re-primes the cache and watch ingest hits again.
	upd := spec.CloneForWriteAs(got.(*spec.Pod))
	upd.Metadata.Annotations = map[string]string{"repaired": "1"}
	if err := c.Update(upd); err != nil {
		t.Fatal(err)
	}
	_, missesBefore, _ := srv.DecodeCacheStats()
	settle(loop)
	if _, misses, _ := srv.DecodeCacheStats(); misses != missesBefore {
		t.Fatalf("post-repair watch ingest decoded for real (%d new misses), want a cache hit", misses-missesBefore)
	}
}

// Tampered store-channel writes must not prime the cache with the
// pre-tamper object: the next decode has to see the bytes that actually
// reached the store.
func TestDecodeCacheSkipsTamperedStoreWrites(t *testing.T) {
	loop, _, srv := newTestServer(t)
	srv.SetStoreWriteHook(func(m *Message) Action {
		if m.Verb != VerbCreate {
			return Pass
		}
		obj := spec.New(m.Kind)
		if err := codecUnmarshal(m.Data, obj); err != nil {
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

// A restored server (the fork path) inherits the snapshot's decoded objects
// and rebuilds its watch cache without re-decoding the whole store.
func TestDecodeCacheSharedThroughSnapshotRestore(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("test")
	for _, name := range []string{"web-1", "web-2", "web-3"} {
		if err := c.Create(testPod(name)); err != nil {
			t.Fatal(err)
		}
	}
	settle(loop)
	serverSnap := srv.Snapshot()
	decodeSnap := srv.DecodeCache().Snapshot()
	storeSnap := srv.store.Snapshot()

	loop2 := sim.NewLoop(2)
	st2 := store.NewReplicated(loop2, 1, nil)
	st2.Restore(storeSnap)
	srv2 := New(loop2, st2, nil)
	srv2.DecodeCache().Restore(decodeSnap)
	srv2.RestoreSnapshot(serverSnap)

	hits, misses, _ := srv2.DecodeCacheStats()
	if misses != 0 {
		t.Fatalf("fork rebuild performed %d real decodes, want 0 (snapshot carries the decoded objects)", misses)
	}
	if hits == 0 {
		t.Fatal("fork rebuild did not consult the decode cache")
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

// Round-trip soundness of the write-path priming: the cached object must be
// field-for-field what a real decode would produce — decode the stored
// bytes, stamp the mod revision (as every decode path does), and the two
// objects must re-encode identically.
func TestDecodeCachePrimedObjectMatchesRealDecode(t *testing.T) {
	loop, st, srv := newTestServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	settle(loop)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
	cached, ok := srv.decoded.entries[key]
	if !ok {
		t.Fatal("write did not prime the decode cache")
	}
	kv, _ := st.Get(key)
	reenc, err := codec.Marshal(cached.obj)
	if err != nil {
		t.Fatal(err)
	}
	fresh := spec.New(spec.KindPod)
	if err := codec.Unmarshal(kv.Value, fresh); err != nil {
		t.Fatal(err)
	}
	fresh.Meta().ResourceVersion = kv.Revision
	refresh, err := codec.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if string(refresh) != string(reenc) {
		t.Fatal("a real decode would produce a different object than the cached one")
	}
}
