package apiserver

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// TestControlPlaneRestoreIsWhole: a control plane is snapshotted and restored
// as one value. A 3-replica plane written through each of its servers is
// restored into a fresh plane and into one that was written to and then
// Reset, both on their own goroutines at once (make race checks that Restore
// only reads the snapshot). Each must serve the source's objects from every
// server without decoding them again, share one restored audit among its
// servers, and mint the next UIDs in three distinct residues, one per server.
func TestControlPlaneRestoreIsWhole(t *testing.T) {
	const n = 3
	loop := sim.NewLoop(21)
	st := store.NewReplicated(loop, n, nil)
	src := NewControlPlane(loop, st, nil, nil)
	for i, srv := range src.Servers {
		if err := srv.ClientFor("test").Create(testPod(fmt.Sprintf("web-%d", i))); err != nil {
			t.Fatal(err)
		}
		settle(loop)
	}
	if err := src.Servers[1].ClientFor("test").Create(testPod("web-0")); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("duplicate create = %v, want ErrAlreadyExists", err)
	}
	settle(loop)
	snap, storeSnap := src.Snapshot(), st.Snapshot()
	want := podNames(src.Servers[0])

	type plane struct {
		loop *sim.Loop
		st   *store.Replicated
		cp   *ControlPlane
	}
	build := func(seed int64) plane {
		loop := sim.NewLoop(seed)
		st := store.NewReplicated(loop, n, nil)
		return plane{loop, st, NewControlPlane(loop, st, nil, nil)}
	}
	fresh, reused := build(22), build(23)
	for i, srv := range reused.cp.Servers {
		c := srv.ClientFor("test")
		for _, name := range []string{fmt.Sprintf("stale-%d", i), fmt.Sprintf("stale-%d", i)} {
			_ = c.Create(testPod(name)) // the second fails: an audited error to forget
		}
		settle(reused.loop)
	}
	reused.loop.Reset()
	reused.st.Reset()
	reused.cp.Reset()

	var wg sync.WaitGroup
	for _, p := range []plane{fresh, reused} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.loop.Reset() // a fresh store started its election on the loop
			p.st.Restore(storeSnap)
			p.cp.Restore(snap)
		}()
	}
	wg.Wait()

	for _, p := range []struct {
		name string
		plane
	}{{"fresh", fresh}, {"reset", reused}} {
		audit := p.cp.Servers[0].Audit()
		for i, srv := range p.cp.Servers {
			if got := podNames(srv); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: server %d serves %v, want %v", p.name, i, got, want)
			}
			if _, misses, _ := srv.DecodeCacheStats(); misses != 0 {
				t.Errorf("%s: server %d decoded %d objects in its rebuild, want 0: the decode cache was not restored first", p.name, i, misses)
			}
			if srv.Audit() != audit {
				t.Errorf("%s: server %d has an audit of its own", p.name, i)
			}
		}
		if got := audit.ErrorsBy("test"); got != 1 {
			t.Errorf("%s: restored audit counts %d errors by the test client, want the source's 1", p.name, got)
		}
		if audit == src.audit || audit == snap.audit {
			t.Errorf("%s: restored audit aliases the source's or the snapshot's", p.name)
		}

		var uids [n]int64
		for i, srv := range p.cp.Servers {
			pod := testPod(fmt.Sprintf("next-%d", i))
			if err := srv.ClientFor("test").Create(pod); err != nil {
				t.Fatalf("%s: create through server %d: %v", p.name, i, err)
			}
			uids[i] = uidNumber(t, pod.Metadata.UID)
		}
		// Every server skewed by the one draw, so the residues stay those of
		// the servers' origins, shifted alike.
		for i := range uids {
			for j := range i {
				if uids[i] == uids[j] {
					t.Errorf("%s: servers %d and %d drew the same UID %d", p.name, j, i, uids[i])
				}
			}
			if r := ((uids[i]-uids[0])%n + n) % n; r != int64(i) {
				t.Errorf("%s: server %d drew UID %d, residue %d past server 0's %d, want %d", p.name, i, uids[i], r, uids[0], i)
			}
		}
		settle(p.loop)
	}
	if got := snap.audit.ErrorsBy("test"); got != 1 {
		t.Errorf("the snapshot's audit counts %d errors after the restores, want 1", got)
	}
}

// podNames lists the pods srv serves, by name.
func podNames(srv *Server) []string {
	var names []string
	for _, obj := range srv.ClientFor("observer").List(spec.KindPod, spec.DefaultNamespace) {
		names = append(names, obj.Meta().Name)
	}
	return names
}

// uidNumber parses a server-assigned UID back into its counter value.
func uidNumber(t *testing.T, uid string) int64 {
	t.Helper()
	v, err := strconv.ParseInt(strings.TrimPrefix(uid, "uid-"), 10, 64)
	if err != nil || !strings.HasPrefix(uid, "uid-") {
		t.Fatalf("UID %q is not server-assigned", uid)
	}
	return v
}
