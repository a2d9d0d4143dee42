package apiserver_test

import (
	"slices"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// settledCluster boots a default cluster, drives it until its system pods are
// ready and rolls out a deployment: objects of every kind, cluster-scoped and
// in two namespaces.
func settledCluster(t *testing.T, seed int64) *cluster.Cluster {
	t.Helper()
	c := cluster.New(cluster.Config{Seed: seed})
	c.Start()
	if !c.AwaitSettled(30 * time.Second) {
		t.Fatal("cluster did not settle within 30s of simulated time")
	}
	if err := c.Client("kbench").Create(stormDeployment("web", 3)); err != nil {
		t.Fatal(err)
	}
	c.Loop.RunUntil(c.Loop.Now() + 10*time.Second)
	return c
}

// Range is List without the copy: for every kind, over all namespaces, each
// namespace that holds objects, one that prefixes another and one that holds
// none, it visits the objects List returns in List's order, after calling the
// access hook on the same keys in the same order (those objects' store keys); a visit that stops early
// sees a prefix of them with every hook already called, and a down server
// visits nothing and calls no hook.
func TestRangeMatchesList(t *testing.T) {
	c := settledCluster(t, 3400)
	srv, client := c.Server, c.Client("range-test")
	var hooked []string
	srv.SetAccessHook(func(key string) { hooked = append(hooked, key) })

	namespaces := []string{"", "kube", "nope"}
	for _, kind := range spec.Kinds() {
		for _, obj := range client.List(kind, "") {
			if ns := obj.Meta().Namespace; !slices.Contains(namespaces, ns) {
				namespaces = append(namespaces, ns)
			}
		}
	}
	if len(namespaces) < 5 {
		t.Fatalf("a settled cluster holds objects in namespaces %q: too few to test", namespaces[3:])
	}
	nonEmpty := 0
	for _, kind := range spec.Kinds() {
		for _, ns := range namespaces {
			hooked = hooked[:0]
			listed := client.List(kind, ns)
			listHooks := slices.Clone(hooked)
			var keys []string
			for _, obj := range listed {
				keys = append(keys, spec.Key(kind, obj.Meta().Namespace, obj.Meta().Name))
			}
			if !slices.Equal(listHooks, keys) {
				t.Errorf("%s in %q: List calls the access hook on %q, want the keys of what it returns, %q", kind, ns, listHooks, keys)
			}

			hooked = hooked[:0]
			var ranged []spec.Object
			client.Range(kind, ns, func(obj spec.Object) bool {
				if len(hooked) != len(listHooks) {
					t.Errorf("%s in %q: %d access hooks before the first visit, want all %d", kind, ns, len(hooked), len(listHooks))
				}
				ranged = append(ranged, obj)
				return true
			})
			if !slices.Equal(ranged, listed) {
				t.Errorf("%s in %q: Range visits %d objects, List returns %d, or the order differs", kind, ns, len(ranged), len(listed))
			}
			if !slices.Equal(hooked, listHooks) {
				t.Errorf("%s in %q: Range calls the access hook on %q, List on %q", kind, ns, hooked, listHooks)
			}
			if len(listed) == 0 {
				continue
			}
			nonEmpty++

			stop := len(listed) / 2
			hooked = hooked[:0]
			ranged = ranged[:0]
			client.Range(kind, ns, func(obj spec.Object) bool {
				ranged = append(ranged, obj)
				return len(ranged) <= stop
			})
			if !slices.Equal(ranged, listed[:stop+1]) {
				t.Errorf("%s in %q: stopping after visit %d, Range visits %d objects", kind, ns, stop+1, len(ranged))
			}
			if !slices.Equal(hooked, listHooks) {
				t.Errorf("%s in %q: an early stop calls the access hook on %d keys, want all %d", kind, ns, len(hooked), len(listHooks))
			}
		}
	}
	if nonEmpty < len(spec.Kinds()) {
		t.Fatalf("only %d non-empty (kind, namespace) ranges: the cluster is too sparse to test", nonEmpty)
	}

	srv.SetDown(true)
	hooked = hooked[:0]
	visited := 0
	client.Range(spec.KindPod, "", func(spec.Object) bool { visited++; return true })
	if visited != 0 || len(hooked) != 0 || client.List(spec.KindPod, "") != nil {
		t.Errorf("a down server: Range visits %d objects and calls %d access hooks, want none", visited, len(hooked))
	}
}

// A resync whose view is in step with the server repairs nothing and walks the
// server's index in place, so it allocates nothing: at 500 nodes the
// manager's and the scheduler's views re-list every pod and node every 5 s.
func TestResyncAllocatesNothing(t *testing.T) {
	c := settledCluster(t, 3401)
	r := apiserver.NewReflector(c.Loop, c.Client("resync-test"), 0, nil, spec.Kinds()...)
	r.Start()
	if allocs := testing.AllocsPerRun(20, r.Resync); allocs != 0 {
		t.Errorf("a resync with nothing to repair allocates %.1f times, want 0", allocs)
	}
	if n := r.ResyncRepairs(); n != 0 {
		t.Fatalf("the resyncs repaired %d entries of a view primed a moment before", n)
	}
}
