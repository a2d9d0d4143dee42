package store

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

func TestReplicatedConvergence(t *testing.T) {
	loop := sim.NewLoop(1)
	r := NewReplicated(loop, 3, nil)
	if _, err := r.PutVia(0, "/registry/Pod/default/a", spec.KindPod, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PutVia(0, "/registry/Pod/default/b", spec.KindPod, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	_, _ = r.DeleteVia(0, "/registry/Pod/default/b")
	// Allow the raft election and replication to complete.
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
	if _, err := r.PutVia(0, "/registry/Pod/default/a", spec.KindPod, corrupted); err != nil {
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
	if _, err := r.PutVia(0, "/registry/Pod/default/a", spec.KindPod, []byte("good")); err != nil {
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

func TestReplicatedSingleNode(t *testing.T) {
	loop := sim.NewLoop(4)
	r := NewReplicated(loop, 1, nil)
	if _, err := r.PutVia(0, "/k", spec.KindPod, []byte("v")); err != nil {
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
	r.WatchReplica(0, "/", func(ev Event) { events = append(events, ev) })
	if _, err := r.PutVia(0, "/k", spec.KindPod, []byte("v")); err != nil {
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
	put     func(key string, value []byte) (int64, error)
	del     func(key string) bool
	watch   func(prefix string, fn func(Event)) (cancel func())
	corrupt func(key string, mutate func([]byte) []byte) bool
	// rewind snapshots the store, resets it and restores the snapshot.
	rewind func()
	st     *Store
}

// oneMemberScript runs the same writes, watches, rewrites and rewind against
// ops and logs everything observable: every result, every delivered event,
// the final contents, the loop's event count and its next random draw.
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
	cancelA := ops.watch("/registry/", hear("a"))
	registered := false
	ops.watch("/registry/Pod/", func(ev Event) {
		hear("b")(ev)
		if !registered { // mid-delivery: hears the next event, not this one
			registered = true
			ops.watch("/registry/", hear("c"))
		}
	})
	put("/registry/Pod/default/a", 10)
	put("/registry/Pod/default/b", 20)
	put("/registry/Node//big", 65) // over the value limit
	loop.RunUntil(loop.Now() + time.Second)
	note("delete a: %v", ops.del("/registry/Pod/default/a"))
	note("delete a again: %v", ops.del("/registry/Pod/default/a"))
	note("corrupt b: %v", ops.corrupt("/registry/Pod/default/b", func(b []byte) []byte { b[0] ^= 0xff; return b }))
	cancelA()
	for i := 0; i < 5; i++ { // the last ones are over quota
		put(fmt.Sprintf("/registry/Pod/default/fill-%d", i), 60)
	}
	loop.RunUntil(loop.Now() + time.Second)
	ops.rewind()
	ops.watch("/registry/", hear("d"))
	note("delete fill-0: %v", ops.del("/registry/Pod/default/fill-0"))
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
		put:     func(key string, v []byte) (int64, error) { return s.Put(key, spec.KindPod, v) },
		del:     s.Delete,
		watch:   s.Watch,
		corrupt: s.CorruptAtRest,
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
		put: func(key string, v []byte) (int64, error) { return r.PutVia(0, key, spec.KindPod, v) },
		del: func(key string) bool {
			ok, err := r.DeleteVia(0, key)
			return ok && err == nil
		},
		watch:   func(prefix string, fn func(Event)) func() { return r.WatchReplica(0, prefix, fn) },
		corrupt: r.Replica(0).CorruptAtRest,
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
	if _, err := r.PutVia(0, "/a", spec.KindPod, value); err != nil {
		t.Fatal(err) // crosses the quota, but was admitted below it
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.PutVia(0, "/b", spec.KindPod, value); !errors.Is(err, ErrNoSpace) {
			t.Fatalf("PutVia past quota: err %v, want ErrNoSpace", err)
		}
	})
	if allocs != 0 {
		t.Errorf("a quota-rejected PutVia allocates %.0f times, want 0", allocs)
	}
}
