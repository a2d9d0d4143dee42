// Package scheduler implements the kube-scheduler: it assigns pending pods
// to nodes based on resource requests, availability and constraints, runs
// behind leader election, and maintains a local cache of node allocations.
//
// The cache is the scheduler's Achilles' heel probed by the paper (§V-C):
// when the state observed from the store contradicts the cache — e.g. a
// pod's nodeName silently changed to a node the scheduler never chose — the
// scheduler assumes its own cache is corrupt and restarts, leaving pods
// pending until a new leader takes over (~20 s in the default
// configuration).
package scheduler

import (
	"fmt"
	"sort"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/election"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

const (
	schedulePeriod = 100 * time.Millisecond
	// restartDelay plus the lease expiry (~15 s) reproduce the paper's
	// "after a new leader Scheduler is elected (after 20 seconds, in the
	// standard configuration)".
	restartDelay = 5 * time.Second
	// viewResync is the low-frequency safety net of the scheduler's informer
	// views: a pod event lost on the watch channel surfaces at the next
	// reconcile instead of leaving the pod pending forever.
	viewResync = 5 * time.Second
)

// Options configure the scheduler.
type Options struct {
	// Identity distinguishes replicas.
	Identity string
}

// Scheduler assigns pods to nodes.
type Scheduler struct {
	loop    *sim.Loop
	eps     *apiserver.Endpoints
	client  *apiserver.Client
	opts    Options
	elector *election.Elector

	running bool
	// pending holds the pod keys awaiting scheduling, each with the inputs
	// generation (gen) at which the pod was last found to fit no node; 0 is a
	// pod not tried yet. A pod whose entry equals gen is skipped: nothing that
	// could turn its verdict has moved since. gen moves (inputsMoved) when a
	// charge of the allocation index is released, shrinks or changes node, on
	// any node event of the view, and with the cache; a pod's own event resets
	// its entry alone. untried counts the entries that differ from gen — the
	// pods a cycle has to look at — and, while there are any, low is a key no
	// greater than any of theirs: a cycle's walk of the view starts there.
	pending  map[string]uint64
	gen      uint64
	untried  int
	low      string
	attempts int               // scheduleOne calls since the cache was cleared
	walked   int               // pods the cycles' walks looked at since the cache was cleared
	assumed  map[string]string // pod UID → node the scheduler bound it to
	// podAlloc/nodeUsed form the incremental allocation index: the per-node
	// resource charge of every assigned active pod, maintained from the same
	// view events that drive the pending set. Each scheduling pass reads node
	// free resources from it instead of re-scanning the whole pod set, so the
	// per-cycle cost is O(nodes), not O(nodes + pods) — the term that matters
	// once 500-node zoned clusters carry a daemon pod per node.
	podAlloc map[string]allocEntry
	nodeUsed map[string]allocUsage
	// lastPreempt backs off preemption attempts per pod (the real
	// scheduler's preemption is similarly rate-limited).
	lastPreempt map[string]time.Duration
	ticker      sim.Timer
	// views is the scheduler's informer view of pods and nodes: pod events
	// drive the pending/assumed bookkeeping (including the cache-self-check
	// restart), and every scheduling pass reads nodes and pods from the view
	// instead of re-listing the server.
	views *apiserver.Reflector
	// first is the elector New built; a cache-mismatch restart replaces
	// elector with one campaigning under a fresh identity, and Reset puts
	// first back.
	first    *election.Elector
	restarts int
	epoch    int

	// The node snapshot of the scheduling cycle in progress (snapshotNodes),
	// kept between cycles for its memory: the nodeInfo records, the list of
	// pointers into them, and the per-zone buckets of the same pointers.
	nodeSlab  []nodeInfo
	nodeInfos []*nodeInfo
	nodeZones map[string][]*nodeInfo
}

// New builds a scheduler whose clients come from eps: its own apiserver's, in
// the co-located deployment every cluster here builds.
func New(loop *sim.Loop, eps *apiserver.Endpoints, opts Options) *Scheduler {
	if opts.Identity == "" {
		opts.Identity = "kube-scheduler-0"
	}
	s := &Scheduler{
		loop:        loop,
		eps:         eps,
		client:      eps.ClientFor("scheduler"),
		opts:        opts,
		pending:     make(map[string]uint64),
		gen:         1,
		assumed:     make(map[string]string),
		podAlloc:    make(map[string]allocEntry),
		nodeUsed:    make(map[string]allocUsage),
		lastPreempt: make(map[string]time.Duration),
	}
	s.views = apiserver.NewReflector(loop, s.client, viewResync, s.onViewEvent, spec.KindPod, spec.KindNode)
	s.newElector(opts.Identity)
	s.first = s.elector
	return s
}

// Reset returns the scheduler to the state New left it in, keeping the memory
// of its views and indexes: not campaigning, not running, nothing pending,
// assumed or charged, no restart counted, the original elector back in place.
// Nothing is cancelled or released — the loop, the server and the store the
// scheduler acted on are being reset with it.
func (s *Scheduler) Reset() {
	s.elector = s.first
	s.elector.Reset()
	s.running = false
	s.clearCache()
	s.ticker = sim.Timer{}
	s.views.Reset()
	s.restarts, s.epoch = 0, 0
	s.nodeSlab, s.nodeInfos = emptied(s.nodeSlab), emptied(s.nodeInfos)
	for zone, bucket := range s.nodeZones {
		s.nodeZones[zone] = emptied(bucket)
	}
}

// emptied returns s at length zero with every element of its array zeroed, for
// a scratch buffer that is kept but must hold nothing.
func emptied[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// clearCache empties the scheduler's local cache: what a (re)start rebuilds
// from the views, and what a cache-mismatch restart distrusts.
func (s *Scheduler) clearCache() {
	clear(s.pending)
	s.gen, s.untried, s.low, s.attempts, s.walked = 1, 0, "", 0, 0
	clear(s.assumed)
	clear(s.podAlloc)
	clear(s.nodeUsed)
	clear(s.lastPreempt)
}

func (s *Scheduler) newElector(identity string) {
	s.elector = election.New(s.loop, s.eps.ClientFor(identity), election.Config{
		LeaseName:        "kube-scheduler",
		Identity:         identity,
		OnStartedLeading: s.run,
		OnStoppedLeading: s.halt,
	})
}

// Start begins campaigning; the scheduler runs while it leads.
func (s *Scheduler) Start() { s.elector.Start() }

// Stop halts the scheduler.
func (s *Scheduler) Stop() {
	s.elector.Stop()
	s.halt()
}

// Restarts reports how many cache-mismatch restarts occurred (a timing-
// failure signal for the classifier).
func (s *Scheduler) Restarts() int { return s.restarts }

// Attempts reports how many times the scheduler evaluated a pod against the
// nodes since it last (re)started: the work a backlog of unschedulable pods
// costs.
func (s *Scheduler) Attempts() int { return s.attempts }

// IsRunning reports whether the scheduler is actively scheduling.
func (s *Scheduler) IsRunning() bool { return s.running }

func (s *Scheduler) run() {
	if s.running {
		return
	}
	s.running = true
	s.clearCache()
	s.views.Start()
	s.ticker = s.loop.Every(schedulePeriod, s.scheduleAll)
	// Prime from the view's initial state (the re-list a restarted scheduler
	// performs).
	s.views.ForEach(spec.KindPod, "", func(po spec.Object) bool {
		pod := po.(*spec.Pod)
		if pod.Spec.NodeName == "" && pod.Active() {
			s.enqueue(podKey(pod))
		} else if pod.Spec.NodeName != "" {
			s.assumed[pod.Metadata.UID] = pod.Spec.NodeName
		}
		s.chargePod(pod)
		return true
	})
}

func (s *Scheduler) halt() {
	if !s.running {
		return
	}
	s.running = false
	s.ticker.Stop()
	s.views.Stop()
}

// onViewEvent reacts to the informer view's events — live watch deliveries
// and resync repairs alike, so a pod whose binding the scheduler missed on
// the watch channel still trips the cache self-check at the next reconcile.
func (s *Scheduler) onViewEvent(ev apiserver.WatchEvent) {
	if !s.running {
		return
	}
	if ev.Kind != spec.KindPod {
		// A node changed. Which of its fields did, and whether that can make an
		// unfit pod fit, is not looked into: every verdict is void.
		s.inputsMoved()
		return
	}
	s.trackAlloc(ev)
	pod := ev.Object.(*spec.Pod)
	key := podKey(pod)
	switch ev.Type {
	case apiserver.Deleted:
		s.dequeue(key)
		delete(s.assumed, pod.Metadata.UID)
		return
	case apiserver.Added, apiserver.Modified:
		if pod.Spec.NodeName == "" {
			// The pod's own event voids its own verdict: its selector,
			// tolerations or requests may be what changed.
			if pod.Active() {
				s.enqueue(key)
			} else {
				s.dequeue(key)
			}
			return
		}
		s.dequeue(key)
		if prev, ok := s.assumed[pod.Metadata.UID]; ok && prev != pod.Spec.NodeName {
			// The store says this pod runs somewhere the scheduler never
			// put it. Assume local cache corruption and restart (§V-C).
			s.restart()
			return
		}
		s.assumed[pod.Metadata.UID] = pod.Spec.NodeName
	}
}

// enqueue marks the pod as pending and not tried against the present inputs.
func (s *Scheduler) enqueue(key string) {
	if at, ok := s.pending[key]; !ok || at == s.gen {
		if s.untried == 0 || key < s.low {
			s.low = key
		}
		s.untried++
	}
	s.pending[key] = 0
}

// dequeue removes the pod from the pending set.
func (s *Scheduler) dequeue(key string) {
	if at, ok := s.pending[key]; ok && at != s.gen {
		s.untried--
	}
	delete(s.pending, key)
}

// inputsMoved voids every "fits no node" verdict: an input of feasible may have
// moved in some pod's favour. Free while nothing is memoized.
func (s *Scheduler) inputsMoved() {
	if s.untried < len(s.pending) {
		s.gen++
		s.untried = len(s.pending)
		s.low = ""
	}
}

// restart models a full scheduler restart: state dropped, leadership
// relinquished, and a re-campaign under a fresh identity so the stale lease
// must expire first.
func (s *Scheduler) restart() {
	s.restarts++
	s.halt()
	// Abandon, not Stop: a crashed scheduler cannot release its lease, so the
	// stale lease must expire before the fresh identity can campaign — the
	// ~20 s restart gap the paper measures.
	s.elector.Abandon()
	s.epoch++
	identity := fmt.Sprintf("%s-r%d", s.opts.Identity, s.epoch)
	s.loop.After(restartDelay, func() {
		s.newElector(identity)
		s.elector.Start()
	})
}

// scheduleAll is one scheduling cycle. Unschedulable pods wait for a cluster
// event, as in kube-scheduler's queue: a pod found to fit no node is not looked
// at again until an input of that verdict moves (see pending), so a backlog in
// a full cluster costs a cycle nothing. Three verdicts are not pure functions
// of the inputs and are never kept: a pod with a priority (preemption runs on
// a clock and deletes victims), a bind the server refused (retried every
// cycle), and a failure after a bind of the same cycle — that bind's charge is
// provisional until its event arrives, and if the write was dropped on the
// store channel the capacity is back next cycle with no event to say so.
func (s *Scheduler) scheduleAll() {
	if !s.running || s.untried == 0 {
		return
	}
	nodes, zones := s.snapshotNodes()
	// One pod snapshot per cycle serves all preemption decisions: listing
	// per candidate node degrades quadratically once an uncontrolled-
	// replication injection floods the cluster with pending pods.
	var podSnapshot []*spec.Pod
	bound := false // a bind of this cycle has charged the snapshot
	// The view's order is the scheduling order (namespace/name), and every
	// pending key is a view key naming an unassigned active pod: the view
	// applies an event before onViewEvent sees it, and run re-primes pending
	// from the view. The walk enters the view at low, below which no pod is
	// untried, and ends at the last untried pod: every pod it skips would
	// have been skipped. What stays untried after the cycle is the pods the
	// walk left at 0, so low moves up to the first of them.
	left, low := s.untried, ""
	s.views.ForEachFrom(spec.KindPod, s.low, func(po spec.Object) bool {
		s.walked++
		pod := po.(*spec.Pod)
		key := podKey(pod)
		if at, ok := s.pending[key]; !ok || at == s.gen {
			return true
		}
		left--
		if pod.Spec.Priority > 0 && podSnapshot == nil {
			// Informer-view scan: preemption picks victims by name; they are
			// deleted, never mutated.
			s.views.ForEach(spec.KindPod, "", func(po spec.Object) bool {
				podSnapshot = append(podSnapshot, po.(*spec.Pod))
				return true
			})
		}
		// A zone-pinned pod only ever lands in its zone: score (and preempt)
		// against that zone's bucket alone.
		cand := nodes
		if zone := pod.Spec.NodeSelector[spec.LabelZone]; zone != "" {
			cand = zones[zone]
		}
		switch v := s.scheduleOne(pod, cand, podSnapshot); {
		case v == bindDone:
			s.dequeue(key)
			bound = true
		case v == fitsNowhere && !bound:
			s.pending[key] = s.gen
			s.untried--
		case low == "": // tryAgain, or a failure after a bind: still untried
			low = key
		}
		return left > 0
	})
	s.low = low
}

// verdict is what one scheduling attempt came to.
type verdict int

const (
	// tryAgain: the pod stays pending and must be looked at next cycle.
	tryAgain verdict = iota
	// bindDone: the pod was bound and leaves the pending set.
	bindDone
	// fitsNowhere: no candidate node is feasible, and nothing was done about
	// it — a pure function of the pod, the node views and the charges.
	fitsNowhere
)

type nodeInfo struct {
	node    *spec.Node
	freeCPU int64
	freeMem int64
}

// allocEntry is one pod's charge against a node in the allocation index.
type allocEntry struct {
	node string
	cpu  int64
	mem  int64
}

// allocUsage is a node's total charged allocation.
type allocUsage struct {
	cpu int64
	mem int64
}

// trackAlloc keeps the allocation index in step with one pod event: any
// previous charge for the pod is released, and the pod is re-charged iff it
// is assigned and active — exactly the predicate the old full-scan snapshot
// applied, so index and scan agree at every instant.
func (s *Scheduler) trackAlloc(ev apiserver.WatchEvent) {
	pod := ev.Object.(*spec.Pod)
	uid := pod.Metadata.UID
	prev, charged := s.podAlloc[uid]
	if charged {
		if u, ok := s.nodeUsed[prev.node]; ok {
			u.cpu -= prev.cpu
			u.mem -= prev.mem
			s.nodeUsed[prev.node] = u
		}
		delete(s.podAlloc, uid)
	}
	var now allocEntry
	if ev.Type != apiserver.Deleted {
		now = s.chargePod(pod)
	}
	// Only capacity given back can make an unfit pod fit: a charge that is
	// added, or grows where it is, voids no verdict.
	if charged && (now.node != prev.node || now.cpu < prev.cpu || now.mem < prev.mem) {
		s.inputsMoved()
	}
}

// chargePod adds an assigned active pod to the allocation index and returns
// its charge; the zero entry for a pod that holds nothing.
func (s *Scheduler) chargePod(pod *spec.Pod) allocEntry {
	if pod.Spec.NodeName == "" || !pod.Active() {
		return allocEntry{}
	}
	e := allocEntry{node: pod.Spec.NodeName, cpu: pod.RequestsMilliCPU(), mem: pod.RequestsMemMB()}
	s.podAlloc[pod.Metadata.UID] = e
	u := s.nodeUsed[e.node]
	u.cpu += e.cpu
	u.mem += e.mem
	s.nodeUsed[e.node] = u
	return e
}

// snapshotNodes computes per-node free resources from the allocation index —
// one sorted node scan, no pod scan. Alongside the full list it returns
// per-zone buckets (sharing the same nodeInfo pointers, so in-cycle bind
// charges propagate to both views): a zone-pinned pod is scored against its
// zone's nodes only, which keeps the scheduling cost of zone-local work
// proportional to the touched zone rather than the whole cluster. All three
// are the scheduler's own and valid until the next call: the records live in
// one slab sized before the walk, so the pointers into it stay put.
func (s *Scheduler) snapshotNodes() ([]*nodeInfo, map[string][]*nodeInfo) {
	if n := s.views.Len(spec.KindNode); cap(s.nodeSlab) < n {
		s.nodeSlab = make([]nodeInfo, 0, n)
	}
	slab, infos := s.nodeSlab[:0], s.nodeInfos[:0]
	for zone, bucket := range s.nodeZones {
		s.nodeZones[zone] = bucket[:0]
	}
	s.views.ForEach(spec.KindNode, "", func(no spec.Object) bool {
		node := no.(*spec.Node)
		u := s.nodeUsed[node.Metadata.Name]
		slab = append(slab, nodeInfo{
			node:    node,
			freeCPU: node.Status.AllocatableMilliCPU - u.cpu,
			freeMem: node.Status.AllocatableMemMB - u.mem,
		})
		info := &slab[len(slab)-1]
		infos = append(infos, info)
		if zone := node.Metadata.Labels[spec.LabelZone]; zone != "" {
			if s.nodeZones == nil {
				s.nodeZones = make(map[string][]*nodeInfo)
			}
			s.nodeZones[zone] = append(s.nodeZones[zone], info)
		}
		return true
	})
	s.nodeSlab, s.nodeInfos = slab, infos
	return infos, s.nodeZones
}

// scheduleOne filters and scores nodes, then binds.
func (s *Scheduler) scheduleOne(pod *spec.Pod, nodes []*nodeInfo, podSnapshot []*spec.Pod) verdict {
	s.attempts++
	var best *nodeInfo
	var bestScore int64 = -1
	for _, info := range nodes {
		if !s.feasible(pod, info) {
			continue
		}
		// Least-allocated scoring keeps load spread, deterministically
		// tie-broken by name via the sorted iteration order.
		score := info.freeCPU + info.freeMem
		if score > bestScore {
			best, bestScore = info, score
		}
	}
	if best == nil {
		if pod.Spec.Priority <= 0 {
			return fitsNowhere
		}
		if s.loop.Now()-s.lastPreempt[pod.Metadata.UID] >= time.Second {
			s.lastPreempt[pod.Metadata.UID] = s.loop.Now()
			s.preempt(pod, nodes, podSnapshot)
		}
		return tryAgain
	}
	// Bind on a private copy: the pod is a sealed cache reference.
	bound := spec.CloneForWriteAs(pod)
	bound.Spec.NodeName = best.node.Metadata.Name
	if err := s.client.Update(bound); err != nil {
		return tryAgain
	}
	best.freeCPU -= pod.RequestsMilliCPU()
	best.freeMem -= pod.RequestsMemMB()
	s.assumed[pod.Metadata.UID] = best.node.Metadata.Name
	return bindDone
}

func (s *Scheduler) feasible(pod *spec.Pod, info *nodeInfo) bool {
	node := info.node
	if !node.Status.Ready || node.Spec.Unschedulable {
		return false
	}
	for k, v := range pod.Spec.NodeSelector {
		if node.Metadata.Labels[k] != v {
			return false
		}
	}
	for _, taint := range node.Spec.Taints {
		if (taint.Effect == spec.TaintNoSchedule || taint.Effect == spec.TaintNoExecute) && !pod.Tolerates(taint) {
			return false
		}
	}
	return pod.RequestsMilliCPU() <= info.freeCPU && pod.RequestsMemMB() <= info.freeMem
}

// preempt evicts lower-priority pods to make room for a high-priority pod,
// mirroring priority preemption ("preemptive Pods evict all the
// lower-priority Pods, leading to an Out failure").
func (s *Scheduler) preempt(pod *spec.Pod, nodes []*nodeInfo, podSnapshot []*spec.Pod) {
	needCPU, needMem := pod.RequestsMilliCPU(), pod.RequestsMemMB()
	for _, info := range nodes {
		if !info.node.Status.Ready || info.node.Spec.Unschedulable {
			continue
		}
		var victims []*spec.Pod
		freeCPU, freeMem := info.freeCPU, info.freeMem
		for _, vic := range podSnapshot {
			if vic.Spec.NodeName != info.node.Metadata.Name || !vic.Active() {
				continue
			}
			if vic.Spec.Priority < pod.Spec.Priority {
				victims = append(victims, vic)
			}
		}
		sort.Slice(victims, func(i, j int) bool {
			return victims[i].Spec.Priority < victims[j].Spec.Priority
		})
		var chosen []*spec.Pod
		for _, vic := range victims {
			if freeCPU >= needCPU && freeMem >= needMem {
				break
			}
			freeCPU += vic.RequestsMilliCPU()
			freeMem += vic.RequestsMemMB()
			chosen = append(chosen, vic)
		}
		if freeCPU >= needCPU && freeMem >= needMem && len(chosen) > 0 {
			for _, vic := range chosen {
				_ = s.client.Delete(spec.KindPod, vic.Metadata.Namespace, vic.Metadata.Name)
			}
			return
		}
	}
}

func podKey(p *spec.Pod) string { return p.Metadata.NamespacedName() } // cached on sealed pods
