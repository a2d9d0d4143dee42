package campaign

import (
	"bytes"
	"sync"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/store"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// storesEqual compares two captured backends item by item.
func storesEqual(t *testing.T, a, b *store.Snapshot) bool {
	t.Helper()
	if len(a.Replicas) != len(b.Replicas) {
		return false
	}
	for r := range a.Replicas {
		ra, rb := a.Replicas[r], b.Replicas[r]
		if ra.Rev != rb.Rev || ra.Size != rb.Size || len(ra.Items) != len(rb.Items) {
			return false
		}
		for i := range ra.Items {
			ia, ib := ra.Items[i], rb.Items[i]
			if ia.Key != ib.Key || ia.Kind != ib.Kind || ia.ModRev != ib.ModRev ||
				ia.CreateRev != ib.CreateRev || !bytes.Equal(ia.Value, ib.Value) {
				return false
			}
		}
	}
	return true
}

// TestSnapshotCacheSharesAcrossRunners: two Runners with identical configs
// must resolve to the same process-wide snapshot (one bootstrap simulated,
// not two), and a Runner with a differing config must not.
func TestSnapshotCacheSharesAcrossRunners(t *testing.T) {
	ClearSnapshotCache()
	defer ClearSnapshotCache()

	r1, r2 := NewRunner(), NewRunner()
	s1 := r1.snapshotFor(workload.Deploy)
	before := SnapshotCacheSize()
	s2 := r2.snapshotFor(workload.Deploy)
	if s1 != s2 {
		t.Fatal("identical configs resolved to different snapshots")
	}
	if SnapshotCacheSize() != before {
		t.Fatal("second Runner grew the cache instead of hitting it")
	}

	r3 := NewRunner()
	r3.ClusterConfig = cluster.Config{ControlPlaneReplicas: 3}
	if s3 := r3.snapshotFor(workload.Deploy); s3 == s1 {
		t.Fatal("differing config shared a cached snapshot")
	}
}

// TestSnapshotCacheForkEquivalence: forks of a cached snapshot must be
// byte-identical for equal seeds (across Runners sharing the cache entry)
// and must diverge for differing seeds.
func TestSnapshotCacheForkEquivalence(t *testing.T) {
	ClearSnapshotCache()
	defer ClearSnapshotCache()

	snapA := NewRunner().snapshotFor(workload.ScaleUp)
	snapB := NewRunner().snapshotFor(workload.ScaleUp)

	f1 := snapA.Fork(4242)
	f2 := snapB.Fork(4242)
	if f1.Loop.Now() != f2.Loop.Now() {
		t.Fatalf("same-seed forks resumed at different clocks: %v vs %v", f1.Loop.Now(), f2.Loop.Now())
	}
	if !storesEqual(t, f1.Backend.Snapshot(), f2.Backend.Snapshot()) {
		t.Fatal("same-seed forks have diverging store contents")
	}
	// Drive both forks briefly: identical seeds must stay in lockstep.
	f1.Loop.RunUntil(f1.Loop.Now() + 2_000_000_000)
	f2.Loop.RunUntil(f2.Loop.Now() + 2_000_000_000)
	if !storesEqual(t, f1.Backend.Snapshot(), f2.Backend.Snapshot()) {
		t.Fatal("same-seed forks diverged while running")
	}
	f1.Stop()
	f2.Stop()

	// Distinct seeds: the seed-random phase dither must separate the clocks
	// (that dither is exactly what keeps fork-mode golden variance honest).
	g1 := snapA.Fork(1)
	g2 := snapA.Fork(2)
	if g1.Loop.Now() == g2.Loop.Now() {
		t.Fatal("distinct-seed forks resumed at identical dithered clocks")
	}
	g1.Stop()
	g2.Stop()
}

// TestWorkerViewForkEquivalence: a fork of a snapshot's WorkerView copy must
// be byte-identical to a fork of the snapshot itself for the same seed — the
// view changes memory ownership, never content. (Only the benchmark's
// cluster.worker_view_ms metric still builds views; this goes with it.)
func TestWorkerViewForkEquivalence(t *testing.T) {
	ClearSnapshotCache()
	defer ClearSnapshotCache()

	snap := NewRunner().snapshotFor(workload.ScaleUp)
	view := snap.WorkerView()

	f1 := snap.Fork(777)
	f2 := view.Fork(777)
	if f1.Loop.Now() != f2.Loop.Now() {
		t.Fatalf("view fork resumed at a different clock: %v vs %v", f1.Loop.Now(), f2.Loop.Now())
	}
	if !storesEqual(t, f1.Backend.Snapshot(), f2.Backend.Snapshot()) {
		t.Fatal("view fork has diverging store contents")
	}
	f1.Loop.RunUntil(f1.Loop.Now() + 2_000_000_000)
	f2.Loop.RunUntil(f2.Loop.Now() + 2_000_000_000)
	if !storesEqual(t, f1.Backend.Snapshot(), f2.Backend.Snapshot()) {
		t.Fatal("view fork diverged from snapshot fork while running")
	}
	f1.Stop()
	f2.Stop()
}

// TestSnapshotCacheConcurrentRunners: Runners racing on a cold cache must
// resolve to one shared capture (the bootstrap simulates exactly once) with
// no data race on the published map.
func TestSnapshotCacheConcurrentRunners(t *testing.T) {
	ClearSnapshotCache()
	defer ClearSnapshotCache()

	const n = 4
	snaps := make([]*cluster.Snapshot, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snaps[i] = NewRunner().snapshotFor(workload.Deploy)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if snaps[i] != snaps[0] {
			t.Fatalf("runner %d captured a private snapshot despite the shared cache", i)
		}
	}
	if SnapshotCacheSize() != 1 {
		t.Fatalf("cache size = %d after concurrent capture, want 1", SnapshotCacheSize())
	}
}

// TestClearSnapshotCacheRacesActiveForks: clearing the cache must never
// invalidate snapshots already handed out — workers keep forking (and their
// forks keep running) while another goroutine clears and repopulates the
// published map.
func TestClearSnapshotCacheRacesActiveForks(t *testing.T) {
	ClearSnapshotCache()
	defer ClearSnapshotCache()

	snap := NewRunner().snapshotFor(workload.Deploy)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() { // churn the published map: clear + insert, repeatedly
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ClearSnapshotCache()
			sharedSnapshotEntry("probe")
			if SnapshotCacheSize() == 0 {
				t.Error("probe entry missing right after insert")
				return
			}
		}
	}()

	const workers, forksEach = 3, 3
	var forkers sync.WaitGroup
	for g := 0; g < workers; g++ {
		forkers.Add(1)
		go func(g int) {
			defer forkers.Done()
			for i := 0; i < forksEach; i++ {
				f := snap.Fork(int64(1000*g + i))
				f.Loop.RunUntil(f.Loop.Now() + 500_000_000)
				f.Stop()
			}
		}(g)
	}
	forkers.Wait()
	close(stop)
	churn.Wait()
}
