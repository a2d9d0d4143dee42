// Package raft implements a compact Raft consensus protocol (leader
// election, log replication, majority commit) over the simulation loop.
//
// It backs the replicated-control-plane ablation of §V-C1: the paper repeats
// the critical-field injections against a three-node control plane and finds
// no difference, because Mutiny corrupts transactions *before* the consensus
// algorithm runs — all replicas faithfully agree on the faulty value. The
// replicated store built on this package reproduces exactly that behaviour,
// while quorum reads mask single-replica at-rest corruption.
package raft

import (
	"errors"
	"fmt"
	"time"

	"github.com/mutiny-sim/mutiny/internal/sim"
)

// ErrNotLeader is returned by Propose when the node is not the leader.
var ErrNotLeader = errors.New("raft: not leader")

// State is a node's role.
type State int

// Node states.
const (
	Follower State = iota + 1
	Candidate
	Leader
)

func (s State) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Entry is one replicated log record.
type Entry struct {
	Term  int64
	Index int64
	Data  []byte
}

// Timing parameters, scaled for the simulated cluster.
const (
	heartbeatInterval  = 50 * time.Millisecond
	electionTimeoutMin = 150 * time.Millisecond
	electionTimeoutMax = 300 * time.Millisecond
	messageLatency     = 2 * time.Millisecond
)

type msgType int

const (
	msgVoteRequest msgType = iota + 1
	msgVoteResponse
	msgAppend
	msgAppendResponse
)

type message struct {
	typ  msgType
	from int
	term int64

	// vote request
	lastLogIndex int64
	lastLogTerm  int64
	// vote response
	granted bool
	// append
	prevLogIndex int64
	prevLogTerm  int64
	entries      []Entry
	leaderCommit int64
	// append response
	success    bool
	matchIndex int64
}

// Cluster is a set of raft nodes sharing a simulated transport.
type Cluster struct {
	loop  *sim.Loop
	nodes []*node
	// applyFn is invoked once per node per committed entry, in log order.
	applyFn func(nodeID int, e Entry)
	// cut[i][j] reports whether messages i→j are dropped (network partition).
	cut map[int]map[int]bool
}

type node struct {
	c  *Cluster
	id int

	state       State
	term        int64
	votedFor    int // -1 when unset
	log         []Entry
	commitIndex int64
	lastApplied int64

	votes      map[int]bool
	nextIndex  []int64
	matchIndex []int64

	electionTimer  sim.Timer
	heartbeatTimer sim.Timer
	stopped        bool
}

// NewCluster starts n raft nodes on the loop. applyFn receives committed
// entries per node; it may be nil.
func NewCluster(loop *sim.Loop, n int, applyFn func(nodeID int, e Entry)) *Cluster {
	if applyFn == nil {
		applyFn = func(int, Entry) {}
	}
	c := &Cluster{loop: loop, applyFn: applyFn, cut: make(map[int]map[int]bool)}
	for i := 0; i < n; i++ {
		nd := &node{c: c, id: i, state: Follower, votedFor: -1, votes: make(map[int]bool)}
		c.nodes = append(c.nodes, nd)
	}
	for _, nd := range c.nodes {
		nd.resetElectionTimer()
	}
	return c
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Leader returns the current leader's id, or -1 if none is established.
// Under a partition a deposed leader on the minority side still believes it
// leads (it cannot learn of the higher term), so the highest-term claimant
// wins the scan.
func (c *Cluster) Leader() int {
	best, bestTerm := -1, int64(-1)
	for _, nd := range c.nodes {
		if nd.state == Leader && !nd.stopped && nd.term > bestTerm {
			best, bestTerm = nd.id, nd.term
		}
	}
	return best
}

// Term returns the highest term seen by any node (diagnostics).
func (c *Cluster) Term() int64 {
	var t int64
	for _, nd := range c.nodes {
		if nd.term > t {
			t = nd.term
		}
	}
	return t
}

// Propose appends data to the replicated log via the current leader. It
// returns the entry's log index, or ErrNotLeader if no leader is known.
func (c *Cluster) Propose(data []byte) (int64, error) {
	id := c.Leader()
	if id < 0 {
		return 0, ErrNotLeader
	}
	return c.nodes[id].propose(data)
}

// StopNode crashes a node: it stops participating until RestartNode.
func (c *Cluster) StopNode(id int) {
	nd := c.nodes[id]
	nd.stopped = true
	nd.stopTimers()
}

// RestartNode revives a crashed node as a follower with its log intact.
func (c *Cluster) RestartNode(id int) {
	nd := c.nodes[id]
	nd.stopped = false
	nd.state = Follower
	nd.votedFor = -1
	nd.resetElectionTimer()
}

// InstallSnapshot fast-forwards node id to node from's log and commit state,
// marking everything up to the commit index as applied. It models an etcd
// snapshot transfer: the receiving store is assumed to have been resynced
// from the donor out of band, so the skipped entries must not be re-applied.
func (c *Cluster) InstallSnapshot(id, from int) {
	dst, src := c.nodes[id], c.nodes[from]
	dst.log = append([]Entry(nil), src.log...)
	dst.commitIndex = src.commitIndex
	dst.lastApplied = src.commitIndex
	if src.term > dst.term {
		dst.term = src.term
		dst.votedFor = -1
	}
}

// Partition drops all traffic between the two groups of nodes until Heal.
func (c *Cluster) Partition(groupA, groupB []int) {
	for _, a := range groupA {
		for _, b := range groupB {
			c.cutLink(a, b)
			c.cutLink(b, a)
		}
	}
}

// Heal removes all partitions.
func (c *Cluster) Heal() { c.cut = make(map[int]map[int]bool) }

// CommittedIndex returns a node's commit index (diagnostics/tests).
func (c *Cluster) CommittedIndex(id int) int64 { return c.nodes[id].commitIndex }

// LogOf returns a copy of a node's log (tests).
func (c *Cluster) LogOf(id int) []Entry {
	return append([]Entry(nil), c.nodes[id].log...)
}

// StateOf returns a node's current state.
func (c *Cluster) StateOf(id int) State { return c.nodes[id].state }

func (c *Cluster) cutLink(from, to int) {
	if c.cut[from] == nil {
		c.cut[from] = make(map[int]bool)
	}
	c.cut[from][to] = true
}

func (c *Cluster) send(from, to int, m message) {
	if c.cut[from][to] {
		return
	}
	m.from = from
	c.loop.After(messageLatency, func() {
		dst := c.nodes[to]
		if !dst.stopped {
			dst.receive(m)
		}
	})
}

func (c *Cluster) broadcast(from int, m message) {
	for _, nd := range c.nodes {
		if nd.id != from {
			c.send(from, nd.id, m)
		}
	}
}

// --- node behaviour -----------------------------------------------------------

func (n *node) resetElectionTimer() {
	n.electionTimer.Stop()
	span := int64(electionTimeoutMax - electionTimeoutMin)
	d := electionTimeoutMin + time.Duration(n.c.loop.Rand().Int63n(span))
	n.electionTimer = n.c.loop.After(d, n.startElection)
}

func (n *node) stopTimers() {
	n.electionTimer.Stop()
	n.heartbeatTimer.Stop()
}

func (n *node) lastLogIndex() int64 {
	return int64(len(n.log))
}

func (n *node) lastLogTerm() int64 {
	if len(n.log) == 0 {
		return 0
	}
	return n.log[len(n.log)-1].Term
}

func (n *node) entryAt(index int64) (Entry, bool) {
	if index < 1 || index > int64(len(n.log)) {
		return Entry{}, false
	}
	return n.log[index-1], true
}

func (n *node) startElection() {
	if n.stopped {
		return
	}
	n.state = Candidate
	n.term++
	n.votedFor = n.id
	n.votes = map[int]bool{n.id: true}
	n.resetElectionTimer()
	n.c.broadcast(n.id, message{
		typ:          msgVoteRequest,
		term:         n.term,
		lastLogIndex: n.lastLogIndex(),
		lastLogTerm:  n.lastLogTerm(),
	})
	n.maybeWinElection()
}

func (n *node) maybeWinElection() {
	if n.state != Candidate || len(n.votes) <= len(n.c.nodes)/2 {
		return
	}
	n.state = Leader
	n.nextIndex = make([]int64, len(n.c.nodes))
	n.matchIndex = make([]int64, len(n.c.nodes))
	for i := range n.nextIndex {
		n.nextIndex[i] = n.lastLogIndex() + 1
	}
	n.heartbeatTimer.Stop()
	n.heartbeatTimer = n.c.loop.Every(heartbeatInterval, n.sendHeartbeats)
	n.sendHeartbeats()
}

func (n *node) sendHeartbeats() {
	if n.stopped || n.state != Leader {
		return
	}
	for _, peer := range n.c.nodes {
		if peer.id == n.id {
			continue
		}
		n.replicateTo(peer.id)
	}
}

func (n *node) replicateTo(peer int) {
	prevIndex := n.nextIndex[peer] - 1
	var prevTerm int64
	if e, ok := n.entryAt(prevIndex); ok {
		prevTerm = e.Term
	}
	var entries []Entry
	if n.lastLogIndex() >= n.nextIndex[peer] {
		entries = append(entries, n.log[n.nextIndex[peer]-1:]...)
	}
	n.c.send(n.id, peer, message{
		typ:          msgAppend,
		term:         n.term,
		prevLogIndex: prevIndex,
		prevLogTerm:  prevTerm,
		entries:      entries,
		leaderCommit: n.commitIndex,
	})
}

func (n *node) propose(data []byte) (int64, error) {
	if n.state != Leader || n.stopped {
		return 0, ErrNotLeader
	}
	e := Entry{Term: n.term, Index: n.lastLogIndex() + 1, Data: data}
	n.log = append(n.log, e)
	n.matchIndex[n.id] = e.Index
	n.sendHeartbeats()
	// A single-node cluster commits immediately.
	n.advanceCommit()
	return e.Index, nil
}

func (n *node) receive(m message) {
	if m.term > n.term {
		n.term = m.term
		n.stepDown()
	}
	switch m.typ {
	case msgVoteRequest:
		n.onVoteRequest(m)
	case msgVoteResponse:
		n.onVoteResponse(m)
	case msgAppend:
		n.onAppend(m)
	case msgAppendResponse:
		n.onAppendResponse(m)
	}
}

func (n *node) stepDown() {
	if n.state == Leader {
		n.heartbeatTimer.Stop()
	}
	n.state = Follower
	n.votedFor = -1
	n.resetElectionTimer()
}

func (n *node) onVoteRequest(m message) {
	granted := false
	if m.term >= n.term && (n.votedFor == -1 || n.votedFor == m.from) {
		// Election restriction: candidate's log must be at least as
		// up-to-date as ours (Raft §5.4.1).
		upToDate := m.lastLogTerm > n.lastLogTerm() ||
			(m.lastLogTerm == n.lastLogTerm() && m.lastLogIndex >= n.lastLogIndex())
		if upToDate {
			granted = true
			n.votedFor = m.from
			n.resetElectionTimer()
		}
	}
	n.c.send(n.id, m.from, message{typ: msgVoteResponse, term: n.term, granted: granted})
}

func (n *node) onVoteResponse(m message) {
	if n.state != Candidate || m.term != n.term || !m.granted {
		return
	}
	n.votes[m.from] = true
	n.maybeWinElection()
}

func (n *node) onAppend(m message) {
	if m.term < n.term {
		n.c.send(n.id, m.from, message{typ: msgAppendResponse, term: n.term, success: false})
		return
	}
	if n.state != Follower {
		n.stepDown()
	}
	n.resetElectionTimer()

	// Consistency check on the previous entry.
	if m.prevLogIndex > 0 {
		e, ok := n.entryAt(m.prevLogIndex)
		if !ok || e.Term != m.prevLogTerm {
			n.c.send(n.id, m.from, message{typ: msgAppendResponse, term: n.term, success: false})
			return
		}
	}
	// Append entries, truncating conflicts.
	for _, e := range m.entries {
		if existing, ok := n.entryAt(e.Index); ok {
			if existing.Term != e.Term {
				n.log = n.log[:e.Index-1]
				n.log = append(n.log, e)
			}
		} else {
			n.log = append(n.log, e)
		}
	}
	if m.leaderCommit > n.commitIndex {
		n.commitIndex = min64(m.leaderCommit, n.lastLogIndex())
		n.applyCommitted()
	}
	n.c.send(n.id, m.from, message{
		typ: msgAppendResponse, term: n.term, success: true, matchIndex: n.lastLogIndex(),
	})
}

func (n *node) onAppendResponse(m message) {
	if n.state != Leader || m.term != n.term {
		return
	}
	if m.success {
		if m.matchIndex > n.matchIndex[m.from] {
			n.matchIndex[m.from] = m.matchIndex
			n.nextIndex[m.from] = m.matchIndex + 1
			n.advanceCommit()
		}
		return
	}
	if n.nextIndex[m.from] > 1 {
		n.nextIndex[m.from]--
		n.replicateTo(m.from)
	}
}

func (n *node) advanceCommit() {
	for idx := n.commitIndex + 1; idx <= n.lastLogIndex(); idx++ {
		e, _ := n.entryAt(idx)
		if e.Term != n.term {
			continue // only commit entries from the current term (Raft §5.4.2)
		}
		count := 0
		for _, match := range n.matchIndex {
			if match >= idx {
				count++
			}
		}
		if count > len(n.c.nodes)/2 {
			n.commitIndex = idx
		}
	}
	n.applyCommitted()
}

func (n *node) applyCommitted() {
	for n.lastApplied < n.commitIndex {
		n.lastApplied++
		e, _ := n.entryAt(n.lastApplied)
		n.c.applyFn(n.id, e)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
