package election

import (
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

func setup(t *testing.T) (*sim.Loop, *apiserver.Server) {
	t.Helper()
	loop := sim.NewLoop(1)
	st := store.NewReplicated(loop, 1, nil)
	return loop, apiserver.New(loop, st, nil)
}

func TestSingleCandidateAcquires(t *testing.T) {
	loop, srv := setup(t)
	started := 0
	e := New(loop, srv.ClientFor("kcm-0"), Config{
		LeaseName: "kcm", Identity: "kcm-0",
		OnStartedLeading: func() { started++ },
	})
	e.Start()
	loop.RunUntil(5 * time.Second)
	if !e.IsLeader() {
		t.Fatal("sole candidate did not acquire the lease")
	}
	if started != 1 {
		t.Fatalf("OnStartedLeading fired %d times, want 1", started)
	}
}

func TestOnlyOneLeaderAtATime(t *testing.T) {
	loop, srv := setup(t)
	a := New(loop, srv.ClientFor("kcm-0"), Config{LeaseName: "kcm", Identity: "kcm-0"})
	b := New(loop, srv.ClientFor("kcm-1"), Config{LeaseName: "kcm", Identity: "kcm-1"})
	a.Start()
	b.Start()
	for i := 0; i < 20; i++ {
		loop.RunUntil(loop.Now() + time.Second)
		if a.IsLeader() && b.IsLeader() {
			t.Fatal("two leaders at once")
		}
	}
	if !a.IsLeader() && !b.IsLeader() {
		t.Fatal("no leader after 20s")
	}
}

func TestFailoverAfterLeaseExpiry(t *testing.T) {
	loop, srv := setup(t)
	a := New(loop, srv.ClientFor("sched-0"), Config{LeaseName: "sched", Identity: "sched-0"})
	b := New(loop, srv.ClientFor("sched-1"), Config{LeaseName: "sched", Identity: "sched-1"})
	a.Start()
	loop.RunUntil(5 * time.Second)
	if !a.IsLeader() {
		t.Fatal("a did not acquire")
	}
	b.Start()
	loop.RunUntil(10 * time.Second)
	if b.IsLeader() {
		t.Fatal("b grabbed a fresh lease")
	}
	// a crashes, leaving its lease; b should take over only after the lease
	// duration (~15s).
	a.Abandon()
	takeover := loop.Now()
	for loop.Now() < takeover+40*time.Second && !b.IsLeader() {
		loop.RunUntil(loop.Now() + time.Second)
	}
	if !b.IsLeader() {
		t.Fatal("b never took over after a stopped renewing")
	}
	elapsed := loop.Now() - takeover
	if elapsed < 10*time.Second {
		t.Fatalf("takeover after %v, expected to wait for lease expiry (~15s)", elapsed)
	}
}

// The injection-relevant behaviour: corrupting the lease's holder identity
// silently deposes the leader, which stops reconciling — a Stall precursor.
func TestCorruptedHolderIdentityDeposesLeader(t *testing.T) {
	loop, srv := setup(t)
	var stopped int
	e := New(loop, srv.ClientFor("kcm-0"), Config{
		LeaseName: "kcm", Identity: "kcm-0",
		OnStoppedLeading: func() { stopped++ },
	})
	e.Start()
	loop.RunUntil(5 * time.Second)
	if !e.IsLeader() {
		t.Fatal("did not acquire")
	}
	// Corrupt the holder identity as a store-channel injection would.
	admin := srv.ClientFor("injector")
	obj, err := admin.Get(spec.KindLease, spec.SystemNamespace, "kcm")
	if err != nil {
		t.Fatal(err)
	}
	lease := spec.CloneForWriteAs(obj.(*spec.Lease))
	lease.Spec.HolderIdentity = "kcm-\x31" // flipped character: "kcm-1"
	lease.Spec.RenewMillis = loop.Time().UnixMilli()
	if err := admin.Update(lease); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(10 * time.Second)
	if e.IsLeader() {
		t.Fatal("leader survived holder-identity corruption")
	}
	if stopped != 1 {
		t.Fatalf("OnStoppedLeading fired %d times, want 1", stopped)
	}
	// The ghost holder never renews, so the real candidate eventually takes
	// the lease back — recovery by natural system behaviour.
	loop.RunUntil(40 * time.Second)
	if !e.IsLeader() {
		t.Fatal("candidate never re-acquired after ghost lease expired")
	}
}

func TestAbandonRelinquishes(t *testing.T) {
	loop, srv := setup(t)
	var stopped bool
	e := New(loop, srv.ClientFor("kcm-0"), Config{
		LeaseName: "kcm", Identity: "kcm-0",
		OnStoppedLeading: func() { stopped = true },
	})
	e.Start()
	loop.RunUntil(5 * time.Second)
	e.Abandon()
	if e.IsLeader() {
		t.Fatal("still leader after Abandon")
	}
	if !stopped {
		t.Fatal("OnStoppedLeading not called on Abandon")
	}
	loop.RunUntil(20 * time.Second)
	if e.IsLeader() {
		t.Fatal("abandoned elector re-acquired")
	}
}
