package store

import (
	"errors"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// leaderOf returns the highest-term leader among the live members, or -1.
// Under a partition a deposed leader on the minority side still believes it
// leads (it cannot learn of the higher term), so the highest term wins.
func leaderOf(r *Replicated) int {
	best, bestTerm := -1, int64(-1)
	for i, m := range r.members {
		if m.role == leader && !r.down[i] && m.term > bestTerm {
			best, bestTerm = i, m.term
		}
	}
	return best
}

// termOf returns the highest term any member has seen.
func termOf(r *Replicated) int64 {
	var t int64
	for _, m := range r.members {
		t = max(t, m.term)
	}
	return t
}

func settle(loop *sim.Loop, d time.Duration) { loop.RunUntil(loop.Now() + d) }

func TestElectionElectsOneLeader(t *testing.T) {
	loop := sim.NewLoop(1)
	r := NewReplicated(loop, 3, nil)
	settle(loop, 2*time.Second)
	if leaderOf(r) < 0 {
		t.Fatal("no leader elected after 2s")
	}
	leaders := 0
	for _, m := range r.members {
		if m.role == leader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want exactly 1", leaders)
	}
}

func TestDroppedLeaderIsReplaced(t *testing.T) {
	loop := sim.NewLoop(4)
	r := NewReplicated(loop, 3, nil)
	settle(loop, 2*time.Second)
	old := leaderOf(r)
	if old < 0 {
		t.Fatal("no initial leader")
	}
	r.DropReplica(old)
	settle(loop, 2*time.Second)
	if cur := leaderOf(r); cur < 0 || cur == old {
		t.Fatalf("leader after dropping replica %d is %d, want a survivor", old, cur)
	}
}

// Cut off from the rest, one replica can never win a majority: the rest elect
// among themselves, and the isolated one leads no term it reaches after the
// cut.
func TestPartitionedMemberNeverLeads(t *testing.T) {
	for i := 0; i < 3; i++ {
		loop := sim.NewLoop(5)
		r := NewReplicated(loop, 3, nil)
		settle(loop, 2*time.Second)
		var rest []int
		for j := 0; j < 3; j++ {
			if j != i {
				rest = append(rest, j)
			}
		}
		r.Partition([]int{i}, rest)
		cutTerm := r.members[i].term
		elected := false
		for step := 0; step < 200; step++ {
			settle(loop, 10*time.Millisecond)
			if m := r.members[i]; m.role == leader && m.term > cutTerm {
				t.Fatalf("isolated replica %d leads term %d", i, m.term)
			}
			for _, j := range rest {
				if m := r.members[j]; m.role == leader && m.term > cutTerm {
					elected = true
				}
			}
		}
		if !elected {
			t.Errorf("with replica %d cut off, the majority elected no leader in 2s", i)
		}
	}
}

func TestTermsMonotone(t *testing.T) {
	loop := sim.NewLoop(8)
	r := NewReplicated(loop, 3, nil)
	last := make([]int64, 3)
	for i := 0; i < 10; i++ {
		settle(loop, 500*time.Millisecond)
		if i == 3 {
			r.Partition([]int{0}, []int{1, 2})
		}
		if i == 6 {
			r.Heal()
		}
		for j, m := range r.members {
			if m.term < last[j] {
				t.Fatalf("member %d's term went backwards: %d after %d", j, m.term, last[j])
			}
			last[j] = m.term
		}
	}
}

func TestRestoredReplicaAdoptsDonorTerm(t *testing.T) {
	loop := sim.NewLoop(3)
	r := NewReplicated(loop, 3, nil)
	settle(loop, time.Second)
	r.DropReplica(1)
	settle(loop, 2*time.Second)
	behind := r.members[1].term
	donor := r.members[0].term
	if donor <= behind {
		t.Fatalf("the donor's term %d did not pass the lost replica's %d: nothing to adopt", donor, behind)
	}
	r.RestoreReplica(1)
	if m := r.members[1]; m.term != donor || m.votedFor != -1 || m.role != follower {
		t.Fatalf("restored member: term %d, vote %d, role %d; want the donor's term %d, no vote, follower", m.term, m.votedFor, m.role, donor)
	}
}

// A one-member store has no election to join or leave: dropping its replica
// refuses every access, restoring it (with no donor) brings it back with its
// own data, and neither they nor Heal schedule an event or draw a number.
func TestOneMemberDropRestoreHeal(t *testing.T) {
	loop := sim.NewLoop(11)
	r := NewReplicated(loop, 1, nil)
	if _, err := r.PutVia(0, "/k", spec.KindPod, Entry{Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	r.DropReplica(0)
	if _, err := r.PutVia(0, "/k2", spec.KindPod, Entry{Value: []byte("v")}); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("PutVia on a dropped replica: err %v, want ErrReplicaDown", err)
	}
	if _, _, err := r.GetFrom(0, "/k"); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("GetFrom on a dropped replica: err %v, want ErrReplicaDown", err)
	}
	r.Heal()
	r.RestoreReplica(0)
	r.Heal()
	if kv, ok, err := r.GetFrom(0, "/k"); err != nil || !ok || string(kv.Value) != "v" {
		t.Fatalf("GetFrom after restore = %q, %v, %v; want its own v", kv.Value, ok, err)
	}
	settle(loop, time.Second)
	want := sim.NewLoop(11).Rand().Int63()
	if n, got := loop.EventsExecuted(), loop.Rand().Int63(); n != 0 || got != want {
		t.Fatalf("%d loop events, next draw %d; want none, and %d", n, got, want)
	}
}

// The election touches an experiment only through the loop: the messages and
// timers it schedules and the timeouts it draws. This scripted run through
// member loss, partitions, restores, heals and a snapshot restore is held
// to the loop-event counts, highest terms, leaders and next random draw that
// the standalone Raft package this election was folded out of produced on the
// same script.
func TestElectionFootprint(t *testing.T) {
	type point struct {
		after  string
		events int64
		term   int64
		leader int
	}
	want := []point{
		{"start", 236, 9, 2},
		{"partition 0", 388, 18, 2},
		{"heal", 633, 27, 0},
		{"drop leader", 817, 35, 2},
		{"partition 1", 884, 44, -1},
		{"restore 0", 1036, 53, 2},
		{"drop 2", 1062, 62, -1},
		{"heal again", 1253, 71, 1},
		{"restore 2", 1491, 78, 1},
		{"restore snapshot", 228, 8, 0},
	}
	const wantDraw = 7807628053149132170

	loop := sim.NewLoop(7)
	r := NewReplicated(loop, 3, nil)
	var got []point
	step := func(after string) {
		settle(loop, 2*time.Second)
		got = append(got, point{after, loop.EventsExecuted(), termOf(r), leaderOf(r)})
	}
	step("start")
	r.Partition([]int{0}, []int{1, 2})
	step("partition 0")
	r.Heal() // the leader learns of 0's higher term from a heartbeat response
	step("heal")
	r.DropReplica(leaderOf(r))
	step("drop leader")
	r.Partition([]int{1}, []int{0, 2})
	step("partition 1")
	r.RestoreReplica(0)
	step("restore 0")
	r.DropReplica(2)
	step("drop 2")
	r.Heal()
	step("heal again")
	r.RestoreReplica(2)
	step("restore 2")
	snap := r.Snapshot()
	loop.Reset()
	r.Reset()
	r.Restore(snap)
	step("restore snapshot")

	for i := range want {
		if got[i] != want[i] {
			t.Errorf("after %s: %d events, term %d, leader %d; want %d, %d, %d",
				want[i].after, got[i].events, got[i].term, got[i].leader, want[i].events, want[i].term, want[i].leader)
		}
	}
	if draw := loop.Rand().Int63(); draw != wantDraw {
		t.Errorf("next draw %d, want %d", draw, wantDraw)
	}
}

// Election messages ride the store's one queue of envelopes: once the group
// has a leader and the loop is warm, a heartbeat round — two heartbeats out,
// two responses back, and the followers' timer resets — allocates nothing.
func TestElectionMessagesDoNotAllocate(t *testing.T) {
	loop := sim.NewLoop(1)
	r := NewReplicated(loop, 3, nil)
	settle(loop, 2*time.Second)
	lead := leaderOf(r)
	if lead < 0 {
		t.Fatal("no leader elected after 2s")
	}
	before := loop.EventsExecuted()
	allocs := testing.AllocsPerRun(100, func() { settle(loop, heartbeatInterval) })
	if allocs != 0 {
		t.Errorf("a heartbeat round allocates %.1f times, want 0", allocs)
	}
	if cur := leaderOf(r); cur != lead {
		t.Fatalf("the leader moved from %d to %d during steady heartbeats", lead, cur)
	}
	if n := loop.EventsExecuted() - before; n < 101*5 {
		t.Fatalf("%d loop events in 101 heartbeat rounds: the rounds carried no messages", n)
	}
}
