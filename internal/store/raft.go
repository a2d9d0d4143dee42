package store

import (
	"time"

	"github.com/mutiny-sim/mutiny/internal/sim"
)

// This file runs Raft's leader election among the replicas of a Replicated
// store, and nothing else of Raft: writes apply synchronously at every
// reachable replica (see Replicated.apply), so there is no log to replicate,
// commit or apply. The election is etcd's consensus liveness — churn under
// member loss and partitions — and it touches an experiment only through the
// loop: the messages and timers it schedules and the election timeouts it
// draws from the loop's random source. A member reads the store's own view of
// the world: a lost replica (down) neither times out, sends heartbeats nor
// receives, and a message between two replicas goes only where linkUp says
// the link is up.

// Election timing, scaled for the simulated cluster.
const (
	heartbeatInterval  = 50 * time.Millisecond
	electionTimeoutMin = 150 * time.Millisecond
	electionTimeoutMax = 300 * time.Millisecond
	messageLatency     = 2 * time.Millisecond
)

// role is a member's Raft role.
type role int

const (
	follower role = iota
	candidate
	leader
)

type msgType int

const (
	msgVoteRequest msgType = iota + 1
	msgVoteResponse
	msgHeartbeat // an append with no entries
	msgHeartbeatResponse
)

type message struct {
	typ     msgType
	from    int
	term    int64
	granted bool // vote response
}

// envelope is a message in flight to member to.
type envelope struct {
	to  int
	msg message
}

// member is one replica's election state.
type member struct {
	r  *Replicated
	id int

	role     role
	term     int64
	votedFor int // -1 when unset
	votes    int // granted to this candidacy, its own included

	electionTimer  sim.Timer
	heartbeatTimer sim.Timer
	timeout        func() // startElection, bound once
}

// startRaft starts a fresh election group on the loop: the members draw their
// first election timeouts from the loop's random source, in member order, and
// schedule them. A one-member store starts none, so a single control plane
// draws no election timeouts. The group it replaces must have no events left
// on the loop: Restore, its one caller after NewReplicated, runs on a loop
// that was reset since.
func (r *Replicated) startRaft() {
	if len(r.replicas) < 2 {
		return
	}
	g := make([]member, len(r.replicas))
	for i := range g {
		m := &g[i]
		*m = member{r: r, id: i, votedFor: -1}
		m.timeout = m.startElection
	}
	r.members = g
	for i := range g {
		g[i].resetElectionTimer()
	}
}

// leave stops the i-th member's timers: a lost replica takes no part in the
// election until it rejoins.
func (r *Replicated) leave(i int) {
	if r.members == nil {
		return
	}
	m := &r.members[i]
	m.electionTimer.Stop()
	m.heartbeatTimer.Stop()
}

// rejoin restarts the i-th member as a follower with no vote. A member
// restored from a donor's snapshot first adopts the donor's term if it is
// higher; donor < 0 means none.
func (r *Replicated) rejoin(i, donor int) {
	if r.members == nil {
		return
	}
	m := &r.members[i]
	if donor >= 0 && r.members[donor].term > m.term {
		m.term = r.members[donor].term
	}
	m.role = follower
	m.votedFor = -1
	m.resetElectionTimer()
}

func (m *member) resetElectionTimer() {
	m.electionTimer.Stop()
	span := int64(electionTimeoutMax - electionTimeoutMin)
	d := electionTimeoutMin + time.Duration(m.r.loop.Rand().Int63n(span))
	m.electionTimer = m.r.loop.After(d, m.timeout)
}

func (m *member) startElection() {
	if m.r.down[m.id] {
		return
	}
	m.role = candidate
	m.term++
	m.votedFor = m.id
	m.votes = 1
	m.resetElectionTimer()
	m.broadcast(message{typ: msgVoteRequest, term: m.term})
}

// lead makes a candidate that won a majority the leader: it heartbeats at
// once and then every heartbeatInterval.
func (m *member) lead() {
	m.role = leader
	m.heartbeatTimer.Stop()
	m.heartbeatTimer = m.r.loop.Every(heartbeatInterval, m.sendHeartbeats)
	m.sendHeartbeats()
}

func (m *member) sendHeartbeats() {
	if m.r.down[m.id] || m.role != leader {
		return
	}
	m.broadcast(message{typ: msgHeartbeat, term: m.term})
}

func (m *member) stepDown() {
	if m.role == leader {
		m.heartbeatTimer.Stop()
	}
	m.role = follower
	m.votedFor = -1
	m.resetElectionTimer()
}

// send delivers msg to member to after messageLatency, unless the link is cut
// now or the receiver is lost by then.
func (m *member) send(to int, msg message) {
	if !m.r.linkUp(m.id, to) {
		return
	}
	msg.from = m.id
	m.r.inflight.Put(envelope{to: to, msg: msg})
}

// arrive hands a message to its receiver, unless that replica was lost while
// the message was in flight.
func (r *Replicated) arrive(e envelope) {
	if !r.down[e.to] {
		r.members[e.to].receive(e.msg)
	}
}

func (m *member) broadcast(msg message) {
	for i := range m.r.members {
		if i != m.id {
			m.send(i, msg)
		}
	}
}

func (m *member) receive(msg message) {
	if msg.term > m.term {
		m.term = msg.term
		m.stepDown()
	}
	switch msg.typ {
	case msgVoteRequest:
		granted := msg.term >= m.term && (m.votedFor == -1 || m.votedFor == msg.from)
		if granted {
			m.votedFor = msg.from
			m.resetElectionTimer()
		}
		m.send(msg.from, message{typ: msgVoteResponse, term: m.term, granted: granted})
	case msgVoteResponse:
		if m.role == candidate && msg.term == m.term && msg.granted {
			m.votes++
			if m.votes > len(m.r.members)/2 {
				m.lead()
			}
		}
	case msgHeartbeat:
		if msg.term >= m.term {
			if m.role != follower {
				m.stepDown()
			}
			m.resetElectionTimer()
		}
		m.send(msg.from, message{typ: msgHeartbeatResponse, term: m.term})
	}
	// A heartbeat response does nothing beyond the term check above.
}
