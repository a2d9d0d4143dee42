package apiserver

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// controlPlane is a test control plane wired the way cluster.assemble wires
// one: n servers over one n-member store, sharing one decode cache. served
// records, per server and key, the bytes the server's watch cache entry was
// last served from: a store event's, or a re-list's.
type controlPlane struct {
	t       *testing.T
	loop    *sim.Loop
	backend *store.Replicated
	rep     *store.Replicated // backend when replicated (n > 1): the HA steps run only then
	stores  []*store.Store
	servers []*Server
	served  []map[string]store.KV
}

func newControlPlane(t *testing.T, n int) *controlPlane {
	t.Helper()
	cp := &controlPlane{t: t, loop: sim.NewLoop(7)}
	cp.backend = store.NewReplicated(cp.loop, n, nil)
	if n > 1 {
		cp.rep = cp.backend
	}
	for i := 0; i < n; i++ {
		cp.stores = append(cp.stores, cp.backend.Replica(i))
		srv := NewAt(cp.loop, cp.backend, i, nil)
		srv.SetAdmissionStride(i, n)
		if i > 0 {
			srv.SetDecodeCache(cp.servers[0].DecodeCache())
		}
		cp.servers = append(cp.servers, srv)
		served := make(map[string]store.KV)
		cp.served = append(cp.served, served)
		cp.stores[i].Watch("/registry/", func(ev store.Event) {
			if srv.Down() {
				return
			}
			if ev.Type == store.EventDelete {
				delete(served, ev.Key)
				return
			}
			served[ev.Key] = store.KV{Key: ev.Key, Kind: ev.Kind, Value: ev.Value, Revision: ev.Revision}
		})
	}
	return cp
}

// relisted records that server i's watch cache was just rebuilt from its
// replica (through quorum reads when replicated).
func (cp *controlPlane) relisted(i int) {
	srv := cp.servers[i]
	clear(cp.served[i])
	for _, kv := range cp.stores[i].List("/registry/") {
		if srv.store.Replicas() > 1 {
			kv = srv.quorumVerify(kv)
		}
		cp.served[i][kv.Key] = kv
	}
}

// fresh decodes data with no cache in the way and stamps rev on it, as every
// decode path of the server does.
func (cp *controlPlane) fresh(kv store.KV) spec.Object {
	cp.t.Helper()
	obj := spec.New(kv.Kind)
	if err := codecUnmarshal(kv.Value, obj); err != nil {
		cp.t.Fatalf("%s: test bytes do not decode: %v", kv.Key, err)
	}
	obj.Meta().ResourceVersion = kv.Revision
	return obj
}

// check asserts transparency: for every server and key, the object the write
// path reads (current) and the object the watch cache holds are what a fresh
// decode of the bytes each was served from yields, at that replica's revision.
func (cp *controlPlane) check(step string) {
	cp.t.Helper()
	for i, srv := range cp.servers {
		for _, kv := range cp.stores[i].List("/registry/") {
			obj, prefix, exists, err := srv.current(kv.Kind, kv.Key)
			if cp.rep != nil && cp.rep.ReplicaDown(i) {
				if err == nil {
					cp.t.Errorf("%s: server %d read %s through a lost replica", step, i, kv.Key)
				}
				continue
			}
			if err != nil || !exists {
				cp.t.Errorf("%s: server %d current(%s) = exists %v, err %v", step, i, kv.Key, exists, err)
				continue
			}
			if want := cp.fresh(kv); !reflect.DeepEqual(obj.Clone(), want) {
				cp.t.Errorf("%s: server %d current(%s) = %s, its bytes decode to %s", step, i, kv.Key, brief(obj), brief(want))
			}
			if prefix != nil {
				// The splice source: the head of these very bytes, which with
				// the revision patched in rebuild the object's encoding.
				patched, ok := codec.AppendPrefixWithRV(nil, prefix, obj.Meta().ResourceVersion)
				if !ok || &prefix[:1][0] != &kv.Value[0] || string(patched)+string(kv.Value[len(prefix):]) != string(mustMarshal(obj)) {
					cp.t.Errorf("%s: server %d current(%s) offered a splice prefix that does not rebuild %s", step, i, kv.Key, brief(obj))
				}
			}
		}
		if srv.Down() {
			continue
		}
		if len(srv.cache) != len(cp.served[i]) {
			cp.t.Errorf("%s: server %d watch cache holds %d objects, was served %d", step, i, len(srv.cache), len(cp.served[i]))
		}
		for key, kv := range cp.served[i] {
			obj, ok := srv.cache[key]
			if !ok {
				cp.t.Errorf("%s: server %d watch cache lacks %s", step, i, key)
				continue
			}
			if want := cp.fresh(kv); !reflect.DeepEqual(obj.Clone(), want) {
				cp.t.Errorf("%s: server %d watch cache %s = %s, the bytes it was served decode to %s", step, i, key, brief(obj), brief(want))
			}
		}
	}
}

// brief prints the fields of a pod the script varies.
func brief(obj spec.Object) string {
	pod := obj.(*spec.Pod)
	return fmt.Sprintf("{rv %d, node %q, %v, ready %v}", pod.Metadata.ResourceVersion, pod.Spec.NodeName, pod.Metadata.Annotations, pod.Status.Ready)
}

func (cp *controlPlane) settle() { settle(cp.loop) }

func podKey(name string) string { return spec.Key(spec.KindPod, spec.DefaultNamespace, name) }

// touch updates pod name through server via, stamping an annotation.
func (cp *controlPlane) touch(via int, name, value string) {
	cp.t.Helper()
	c := cp.servers[via].ClientFor("test")
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, name)
	if err != nil {
		cp.t.Fatalf("get %s via %d: %v", name, via, err)
	}
	upd := spec.CloneForWriteAs(obj.(*spec.Pod))
	upd.Metadata.Annotations = map[string]string{"touch": value}
	if err := c.Update(upd); err != nil {
		cp.t.Fatalf("update %s via %d: %v", name, via, err)
	}
}

// renode rewrites a stored pod's node name: at-rest corruption that still
// decodes.
func renode(t *testing.T, node string) func([]byte) []byte {
	return func(b []byte) []byte {
		obj := spec.New(spec.KindPod)
		if err := codecUnmarshal(b, obj); err != nil {
			t.Fatal(err)
		}
		obj.(*spec.Pod).Spec.NodeName = node
		return mustMarshal(obj)
	}
}

// tamperCreates makes srv's store channel rewrite the node name of every pod
// create, as an injection on that channel would.
func tamperCreates(srv *Server) {
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
}

// TestDecodeCacheIsTransparent scripts every way bytes reach a server — its
// own writes, another replica's, tampered ones, bytes rewritten at rest under
// an event in flight, a restart's (quorum) re-list, a partition's catch-up, a
// replica's state transfer — and after every step holds each server to what
// it would serve with no decode cache at all.
func TestDecodeCacheIsTransparent(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("servers=%d", n), func(t *testing.T) {
			cp := newControlPlane(t, n)
			last := n - 1 // a server other than 0 when there is one
			c0 := cp.servers[0].ClientFor("test")

			for i, name := range []string{"web-1", "web-2", "web-3", "web-4"} {
				if err := cp.servers[i%n].ClientFor("test").Create(testPod(name)); err != nil {
					t.Fatal(err)
				}
			}
			cp.check("creates, in flight")
			cp.settle()
			cp.check("creates")

			cp.touch(0, "web-1", "a")
			cp.touch(last, "web-2", "a")
			cp.settle()
			cp.check("updates")

			obj, err := c0.Get(spec.KindPod, spec.DefaultNamespace, "web-3")
			if err != nil {
				t.Fatal(err)
			}
			st := spec.CloneForStatusAs(obj.(*spec.Pod))
			st.Status.Phase, st.Status.Ready, st.Status.PodIP = spec.PodRunning, true, "10.244.1.7"
			if err := c0.UpdateStatus(st); err != nil {
				t.Fatal(err)
			}
			cp.settle()
			cp.check("status update")

			tamperCreates(cp.servers[0])
			if err := c0.Create(testPod("web-5")); err != nil {
				t.Fatal(err)
			}
			cp.servers[0].SetStoreWriteHook(nil)
			cp.check("tampered create, in flight")
			cp.settle()
			cp.check("tampered create")

			// Bytes rewritten at rest while the write's event is in flight, on
			// replica 0 only: first the event lands on an entry nothing has
			// re-read, then (second key) on one a read already took over.
			cp.touch(0, "web-1", "b")
			cp.stores[0].CorruptAtRest(podKey("web-1"), renode(t, "flipped-1"))
			cp.settle()
			cp.check("corrupt at rest, event delivered first")
			cp.touch(0, "web-2", "b")
			cp.stores[0].CorruptAtRest(podKey("web-2"), renode(t, "flipped-2"))
			cp.check("corrupt at rest, read first")
			cp.settle()
			cp.check("corrupt at rest, then the event")

			// A restart re-lists: the corrupted bytes alone, the majority's
			// under the local revision when replicated — while the write path
			// keeps reading what replica 0 really holds.
			cp.servers[0].Restart()
			cp.relisted(0)
			cp.check("restart")
			cp.settle()
			cp.touch(last, "web-3", "c")
			cp.settle()
			cp.check("write after restart")

			if cp.rep == nil {
				return
			}
			cp.rep.Partition([]int{0}, []int{1, 2})
			cp.touch(1, "web-3", "d")
			cp.touch(2, "web-4", "d")
			if err := cp.servers[1].ClientFor("test").Delete(spec.KindPod, spec.DefaultNamespace, "web-5"); err != nil {
				t.Fatal(err)
			}
			cp.settle()
			cp.check("partitioned")
			cp.rep.Heal()
			cp.check("healed, catch-up in flight")
			cp.settle()
			cp.check("healed")

			cp.rep.DropReplica(2)
			cp.touch(0, "web-3", "e")
			cp.touch(1, "web-4", "e")
			cp.settle()
			cp.check("replica lost")
			cp.rep.RestoreReplica(2)
			cp.servers[2].Restart()
			cp.relisted(2)
			cp.check("replica restored")
			cp.settle()
			cp.touch(2, "web-1", "f")
			cp.settle()
			cp.check("write through the restored replica")
		})
	}
}

// TestReplicasDecodeOnce: an accepted write installs one array at every
// replica, so the replicas that did not take the write ingest its event from
// the writer's cache entry, and bytes no server has seen decoded (a tampered
// store write) are decoded by whichever replica meets them first, once.
func TestReplicasDecodeOnce(t *testing.T) {
	cp := newControlPlane(t, 3)
	misses := func() (n int64) {
		for _, srv := range cp.servers {
			_, m, _ := srv.DecodeCacheStats()
			n += m
		}
		return n
	}
	c := cp.servers[0].ClientFor("test")
	const writes = 20
	for i := 0; i < writes/2; i++ {
		if err := c.Create(testPod(fmt.Sprintf("web-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	cp.settle()
	for i := 0; i < writes/2; i++ {
		cp.touch(0, fmt.Sprintf("web-%d", i), "a")
	}
	cp.settle()
	if got := misses(); got != 0 {
		t.Errorf("%d untampered writes cost %d real decodes over three replicas, want 0", writes, got)
	}
	for i, srv := range cp.servers {
		if hits, _, _ := srv.DecodeCacheStats(); hits < writes {
			t.Errorf("server %d ingested %d writes with %d cache hits", i, writes, hits)
		}
	}

	tamperCreates(cp.servers[0])
	if err := c.Create(testPod("tampered")); err != nil {
		t.Fatal(err)
	}
	cp.settle()
	if got := misses(); got != 1 {
		t.Errorf("a tampered write was decoded %d times over three replicas, want once", got)
	}
	cp.check("tampered write")
}
