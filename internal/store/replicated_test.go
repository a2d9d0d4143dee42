package store

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

func TestReplicatedConvergence(t *testing.T) {
	loop := sim.NewLoop(1)
	r := NewReplicated(loop, 3, nil)
	if _, err := r.PutVia(0, "/registry/Pod/default/a", spec.KindPod, Entry{Value: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PutVia(0, "/registry/Pod/default/b", spec.KindPod, Entry{Value: []byte("v2")}); err != nil {
		t.Fatal(err)
	}
	_, _ = r.DeleteVia(0, "/registry/Pod/default/b")
	// Writes apply synchronously at every reachable replica: running the
	// loop (the election, no replication round) changes nothing here.
	loop.RunUntil(5 * time.Second)
	if !r.Converged("/registry/Pod/default/a") {
		t.Fatal("replicas did not converge on /a")
	}
	if !r.Converged("/registry/Pod/default/b") {
		t.Fatal("replicas did not converge on deleted /b")
	}
	for i := 0; i < r.Replicas(); i++ {
		kv, ok := r.Replica(i).Get("/registry/Pod/default/a")
		if !ok || string(kv.Value) != "v1" {
			t.Fatalf("replica %d: Get(/a) = %q ok=%v", i, kv.Value, ok)
		}
		if _, ok := r.Replica(i).Get("/registry/Pod/default/b"); ok {
			t.Fatalf("replica %d still has deleted /b", i)
		}
	}
}

// The §V-C1 result: a value corrupted before the consensus round is agreed
// on by all replicas — replication offers no protection.
func TestReplicatedAgreesOnCorruptValue(t *testing.T) {
	loop := sim.NewLoop(2)
	r := NewReplicated(loop, 3, nil)
	corrupted := []byte{0xde, 0xad} // stands in for a tampered transaction
	if _, err := r.PutVia(0, "/registry/Pod/default/a", spec.KindPod, Entry{Value: corrupted}); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(5 * time.Second)
	for i := 0; i < r.Replicas(); i++ {
		kv, ok := r.Replica(i).Get("/registry/Pod/default/a")
		if !ok || string(kv.Value) != string(corrupted) {
			t.Fatalf("replica %d does not hold the corrupted value", i)
		}
	}
	kv, ok := r.QuorumGet("/registry/Pod/default/a")
	if !ok || string(kv.Value) != string(corrupted) {
		t.Fatal("quorum read did not return the agreed (corrupted) value")
	}
}

// The §V-C1 counterpart: at-rest corruption of one replica is masked by
// quorum reads.
func TestQuorumReadMasksSingleReplicaCorruption(t *testing.T) {
	loop := sim.NewLoop(3)
	r := NewReplicated(loop, 3, nil)
	if _, err := r.PutVia(0, "/registry/Pod/default/a", spec.KindPod, Entry{Value: []byte("good")}); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(5 * time.Second)
	if !r.Replica(2).CorruptAtRest("/registry/Pod/default/a", func(b []byte) []byte {
		return []byte("bad!")
	}) {
		t.Fatal("CorruptAtRest failed")
	}
	kv, ok := r.QuorumGet("/registry/Pod/default/a")
	if !ok || string(kv.Value) != "good" {
		t.Fatalf("QuorumGet = %q, want the majority value", kv.Value)
	}
	if r.Converged("/registry/Pod/default/a") {
		t.Fatal("Converged = true despite divergent replica")
	}
}

// A quorum read tallies the replicas' answers in scratch the store keeps: once
// warm it allocates nothing, whether the replicas agree, one diverges, or the
// key is absent.
func TestQuorumGetDoesNotAllocate(t *testing.T) {
	r := NewReplicated(sim.NewLoop(3), 3, nil)
	for _, k := range []string{"/agreed", "/diverged"} {
		if _, err := r.PutVia(0, k, spec.KindPod, Entry{Value: []byte("good")}); err != nil {
			t.Fatal(err)
		}
	}
	r.Replica(2).CorruptAtRest("/diverged", func([]byte) []byte { return []byte("bad!") })
	for _, k := range []string{"/agreed", "/diverged", "/absent"} {
		r.QuorumGet(k) // warm
		if allocs := testing.AllocsPerRun(100, func() {
			kv, ok := r.QuorumGet(k)
			if ok != (k != "/absent") || ok && string(kv.Value) != "good" {
				t.Fatalf("QuorumGet(%s) = %q, %v", k, kv.Value, ok)
			}
		}); allocs != 0 {
			t.Errorf("QuorumGet(%s) allocates %.1f times per call, want 0", k, allocs)
		}
	}
}

func TestReplicatedSingleNode(t *testing.T) {
	loop := sim.NewLoop(4)
	r := NewReplicated(loop, 1, nil)
	if _, err := r.PutVia(0, "/k", spec.KindPod, Entry{Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	kv, ok := r.QuorumGet("/k")
	if !ok || string(kv.Value) != "v" {
		t.Fatal("single-replica quorum read failed")
	}
}

func TestReplicatedWatchServesPrimary(t *testing.T) {
	loop := sim.NewLoop(5)
	r := NewReplicated(loop, 3, nil)
	var events []Event
	r.Subscribe(0, func(ev Event) { events = append(events, ev) })
	if _, err := r.PutVia(0, "/k", spec.KindPod, Entry{Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	if len(events) != 1 || events[0].Type != EventPut {
		t.Fatalf("events = %+v, want one PUT", events)
	}
}

// storeOps is the surface a one-member script drives: a lone Store's own
// methods, or a one-member Replicated's origin-0 paths.
type storeOps struct {
	put       func(key string, value []byte) (int64, error)
	del       func(key string) bool
	subscribe func(fn func(Event)) (cancel func())
	corrupt   func(key string, mutate func([]byte) []byte) bool
	// rewind snapshots the store, resets it and restores the snapshot.
	rewind func()
	st     *Store
}

// oneMemberScript runs the same writes, subscriptions, cancels, rewrites and
// rewind against ops and logs everything observable: every result, every
// delivered event, the final contents, the loop's event count and its next
// random draw.
func oneMemberScript(loop *sim.Loop, ops storeOps) []string {
	var log []string
	note := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	hear := func(id string) func(Event) {
		return func(ev Event) { note("%s heard %v %s %x @%d", id, ev.Type, ev.Key, ev.Value, ev.Revision) }
	}
	put := func(key string, n int) {
		rev, err := ops.put(key, bytes.Repeat([]byte{byte(n)}, n))
		note("put %s (%d bytes): rev %d, err %v", key, n, rev, err)
	}
	cancelA := ops.subscribe(hear("a"))
	put("/registry/Pod/default/a", 10)
	put("/registry/Pod/default/b", 20)
	put("/registry/Node//big", 65) // over the value limit
	loop.RunUntil(loop.Now() + time.Second)
	note("delete a: %v", ops.del("/registry/Pod/default/a")) // in flight to a, which b replaces
	var cancelC func()
	ops.subscribe(func(ev Event) {
		hear("b")(ev)
		if cancelC == nil { // mid-delivery: c hears the next commit, not this one
			cancelC = ops.subscribe(hear("c"))
		}
	})
	cancelA() // stale: a no-op
	note("delete a again: %v", ops.del("/registry/Pod/default/a"))
	note("corrupt b: %v", ops.corrupt("/registry/Pod/default/b", func(b []byte) []byte { b[0] ^= 0xff; return b }))
	for i := 0; i < 5; i++ { // the last ones are over quota
		put(fmt.Sprintf("/registry/Pod/default/fill-%d", i), 60)
	}
	loop.RunUntil(loop.Now() + time.Second)
	note("delete fill-0: %v", ops.del("/registry/Pod/default/fill-0"))
	loop.RunUntil(loop.Now() + time.Second)
	cancelC()
	note("delete fill-1: %v", ops.del("/registry/Pod/default/fill-1"))
	loop.RunUntil(loop.Now() + time.Second)
	ops.rewind()
	ops.subscribe(hear("d"))
	note("delete b: %v", ops.del("/registry/Pod/default/b"))
	put("/registry/Pod/default/after", 5)
	loop.RunUntil(loop.Now() + time.Second)
	for _, kv := range ops.st.List("/") {
		note("kv %s %s %x @%d", kv.Key, kv.Kind, kv.Value, kv.Revision)
	}
	note("rev %d, size %d, %d keys, quota exceeded %v", ops.st.Revision(), ops.st.SizeBytes(), ops.st.Len(), ops.st.QuotaExceeded())
	note("%d loop events, next draw %d", loop.EventsExecuted(), loop.Rand().Int63())
	return log
}

// A one-member Replicated is a lone Store: the same script through the
// origin-0 paths yields the same results, events, contents, loop events and
// random stream as through the Store's own methods.
func TestOneMemberStoreIsAStore(t *testing.T) {
	opts := &Options{QuotaBytes: 200, MaxValueBytes: 64}

	loop := sim.NewLoop(9)
	s := New(loop, opts)
	lone := oneMemberScript(loop, storeOps{
		put:       func(key string, v []byte) (int64, error) { return s.Put(key, spec.KindPod, v) },
		del:       s.Delete,
		subscribe: s.Subscribe,
		corrupt:   s.CorruptAtRest,
		rewind: func() {
			snap := s.snapshot()
			s.Reset()
			s.restore(snap)
		},
		st: s,
	})

	loop = sim.NewLoop(9)
	r := NewReplicated(loop, 1, opts)
	member := oneMemberScript(loop, storeOps{
		put: func(key string, v []byte) (int64, error) {
			kv, err := r.PutVia(0, key, spec.KindPod, Entry{Value: v})
			return kv.Revision, err
		},
		del: func(key string) bool {
			ok, err := r.DeleteVia(0, key)
			return ok && err == nil
		},
		subscribe: func(fn func(Event)) func() { return r.Subscribe(0, fn) },
		corrupt:   r.Replica(0).CorruptAtRest,
		rewind: func() {
			snap := r.Snapshot()
			r.Reset()
			r.Restore(snap)
		},
		st: r.Replica(0),
	})

	if !reflect.DeepEqual(lone, member) {
		for i := 0; i < len(lone) || i < len(member); i++ {
			var a, b string
			if i < len(lone) {
				a = lone[i]
			}
			if i < len(member) {
				b = member[i]
			}
			if a != b {
				t.Fatalf("line %d: a lone store logs %q, a one-member one %q", i, a, b)
			}
		}
	}
	for _, want := range []string{"err store: request too large", "err store: database space exceeded", "c heard", "d heard"} {
		if !strings.Contains(strings.Join(lone, "\n"), want) {
			t.Errorf("the script never logged %q: it does not exercise what it claims to", want)
		}
	}
}

// A write the origin refuses — over quota here — is refused before its bytes
// are copied.
func TestRejectedWriteAllocatesNothing(t *testing.T) {
	r := NewReplicated(sim.NewLoop(1), 1, &Options{QuotaBytes: 10})
	value := make([]byte, 20)
	if _, err := r.PutVia(0, "/a", spec.KindPod, Entry{Value: value}); err != nil {
		t.Fatal(err) // crosses the quota, but was admitted below it
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.PutVia(0, "/b", spec.KindPod, Entry{Value: value}); !errors.Is(err, ErrNoSpace) {
			t.Fatalf("PutVia past quota: err %v, want ErrNoSpace", err)
		}
	})
	if allocs != 0 {
		t.Errorf("a quota-rejected PutVia allocates %.0f times, want 0", allocs)
	}
}

// PutVia returns what its origin committed: the one owned array that every
// replica reachable from the origin then serves, and a cut-off one once the
// cut heals, at the origin's revision. A refused write returns the zero KV.
func TestPutViaReturnsTheCommittedKV(t *testing.T) {
	r := NewReplicated(sim.NewLoop(1), 3, &Options{MaxValueBytes: 8})
	if _, err := r.PutVia(0, "/a", spec.KindPod, Entry{Value: []byte("v0")}); err != nil {
		t.Fatal(err) // the origin's revision runs ahead of replica 2's from here
	}
	r.Partition([]int{0, 1}, []int{2})
	value := []byte("v1")
	kv, err := r.PutVia(0, "/k", spec.KindPod, Entry{Value: value})
	if err != nil {
		t.Fatal(err)
	}
	if kv.Key != "/k" || kv.Kind != spec.KindPod || string(kv.Value) != "v1" || kv.Revision != r.RevisionAt(0) {
		t.Fatalf("PutVia returned %+v, want /k, Pod, %q at the origin's revision %d", kv, "v1", r.RevisionAt(0))
	}
	if &kv.Value[0] == &value[0] {
		t.Fatal("PutVia returned the caller's bytes, not the array it stored")
	}
	serves := func(i int) {
		t.Helper()
		got, ok, err := r.GetFrom(i, "/k")
		if err != nil || !ok || &got.Value[0] != &kv.Value[0] {
			t.Fatalf("replica %d serves %q (ok=%v, err %v), not the returned array", i, got.Value, ok, err)
		}
		if i == 0 && got.Revision != kv.Revision {
			t.Fatalf("the origin serves revision %d, PutVia returned %d", got.Revision, kv.Revision)
		}
	}
	serves(0)
	serves(1)
	if _, ok, _ := r.GetFrom(2, "/k"); ok {
		t.Fatal("a replica cut off from the origin already serves the write")
	}
	r.Heal()
	serves(2)

	for _, tc := range []struct {
		name  string
		setup func(r *Replicated)
		value []byte
		want  error
	}{
		{"origin down", func(r *Replicated) { r.DropReplica(0) }, []byte("v"), ErrReplicaDown},
		{"no quorum", func(r *Replicated) { r.Partition([]int{0}, []int{1, 2}) }, []byte("v"), ErrNoQuorum},
		{"too large", func(*Replicated) {}, []byte("123456789"), ErrTooLarge},
	} {
		r := NewReplicated(sim.NewLoop(1), 3, &Options{MaxValueBytes: 8})
		tc.setup(r)
		kv, err := r.PutVia(0, "/k", spec.KindPod, Entry{Value: tc.value})
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
		if !reflect.DeepEqual(kv, KV{}) {
			t.Errorf("%s: a refused PutVia returned %+v, want the zero KV", tc.name, kv)
		}
	}
}

// objectWrite returns a sealed pod stamped with revision rev and its object
// entry, written by a writer that saw wireRV.
func objectWrite(t *testing.T, name string, wireRV, rev int64) (*spec.Pod, Entry) {
	t.Helper()
	pod := &spec.Pod{Metadata: spec.ObjectMeta{Name: name, Namespace: spec.DefaultNamespace, ResourceVersion: wireRV}}
	pod.Spec.NodeName = "node-1"
	size, err := codec.Size(pod)
	if err != nil {
		t.Fatal(err)
	}
	e := ObjectEntry(pod, wireRV, int64(size))
	pod.Metadata.ResourceVersion = rev
	spec.Seal(pod)
	return pod, e
}

// An object entry is what every replica holds — live, after a catch-up and
// after a state transfer — with no byte made and none copied; its bytes, made
// for a byte reader, are the object's encoding at its writer's revision; the
// quota counts their length; and replicas holding the one write's entry agree
// without a byte made, while an at-rest rewrite of one of them is outvoted by
// the bytes.
func TestReplicasShareObjectEntries(t *testing.T) {
	r := NewReplicated(sim.NewLoop(1), 3, nil)
	if _, err := r.PutVia(0, "/registry/Pod/default/warm", spec.KindPod, Entry{Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	r.Partition([]int{0, 1}, []int{2})
	pod, e := objectWrite(t, "a", 0, 2)
	key := "/registry/Pod/default/a"
	kv, err := r.PutVia(0, key, spec.KindPod, e)
	if err != nil || kv.Revision != 2 || kv.Object() != pod || kv.Value != nil {
		t.Fatalf("PutVia = %+v, %v; want the object entry at revision 2", kv, err)
	}
	holds := func(i int) {
		t.Helper()
		got, ok, err := r.GetFrom(i, key)
		if err != nil || !ok || got.Object() != pod || got.Value != nil {
			t.Fatalf("replica %d holds %+v (ok=%v, err %v), not the written object", i, got, ok, err)
		}
	}
	holds(0)
	holds(1)
	r.Heal()
	holds(2)
	r.DropReplica(2)
	r.RestoreReplica(2)
	holds(2)

	want := &spec.Pod{Metadata: spec.ObjectMeta{Name: "a", Namespace: spec.DefaultNamespace}}
	want.Spec.NodeName = "node-1"
	wire, _ := codec.Marshal(want)
	if got := kv.Bytes(); !bytes.Equal(got, wire) || kv.Size() != int64(len(wire)) {
		t.Fatalf("the entry makes %x (size %d), want the encoding at the writer's revision %x", got, kv.Size(), wire)
	}
	if got := r.SizeBytes(); got != int64(len("/registry/Pod/default/warm")+1+len(key)+len(wire)) {
		t.Fatalf("SizeBytes = %d, want the keys and the encoded lengths", got)
	}
	for _, l := range r.List("/registry/Pod/default/a") {
		if l.Object() != nil || !bytes.Equal(l.Value, wire) {
			t.Fatalf("List serves %+v, want bytes", l)
		}
	}

	if allocs := testing.AllocsPerRun(100, func() {
		if got, ok := r.QuorumGet(key); !ok || got.Object() != pod {
			t.Fatalf("QuorumGet = %+v, %v", got, ok)
		}
	}); allocs != 0 || !r.Converged(key) {
		t.Fatalf("three replicas holding one write: QuorumGet allocates %.1f times, converged %v", allocs, r.Converged(key))
	}
	r.Replica(2).CorruptAtRest(key, func(b []byte) []byte {
		if !bytes.Equal(b, wire) {
			t.Fatalf("CorruptAtRest was handed %x, want the entry's bytes", b)
		}
		b[len(b)-1] ^= 1
		return b
	})
	if got, ok := r.QuorumGet(key); !ok || got.Object() != pod || r.Converged(key) {
		t.Fatalf("one rewritten replica: QuorumGet = %+v, %v; converged %v", got, ok, r.Converged(key))
	}
	if kv, _ := r.Replica(2).Get(key); kv.Object() != nil || kv.Size() != int64(len(wire)) {
		t.Fatalf("the rewritten replica holds %+v, want bytes of the same length", kv)
	}

	clone := r.Snapshot().Clone()
	for _, it := range clone.Replicas[0].Items {
		if it.Key == key && (it.Object() != nil || !bytes.Equal(it.Value, wire)) {
			t.Fatalf("the clone holds %+v for the object entry, want its bytes", it)
		}
	}
}

// A refused object write allocates nothing, like a refused bytes write.
func TestRejectedObjectWriteAllocatesNothing(t *testing.T) {
	r := NewReplicated(sim.NewLoop(1), 1, &Options{MaxValueBytes: 8})
	_, e := objectWrite(t, "a", 0, 1)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.PutVia(0, "/a", spec.KindPod, e); err != ErrTooLarge {
			t.Fatalf("PutVia of %d bytes over an 8-byte limit: err %v, want the bare ErrTooLarge", e.Size(), err)
		}
	})
	if allocs != 0 {
		t.Errorf("a refused object write allocates %.0f times, want 0", allocs)
	}
}
