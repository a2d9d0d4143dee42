// Package controller implements the kube-controller-manager: the set of
// level-triggered reconciliation loops that continuously drive the observed
// cluster state toward the desired state stored in the data store (§II-C).
//
// Every controller follows the same contract: observe (watch + periodic
// resync), diff desired against observed, and act through the API server.
// None of them keep authoritative state — restarting them is always safe,
// which is the resiliency property the paper's injections probe. The flip
// side, measured by finding F2, is that the relationships between objects
// live entirely in data (labels, selectors, owner references), so one
// corrupted value can send these loops spinning: spawning pods forever,
// deleting healthy objects, or stalling reconciliation.
package controller

import (
	"fmt"
	"hash/fnv"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/election"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// Tunables, scaled for simulated time. The ratios mirror kubeadm defaults
// (heartbeats every 10 s, 40 s node grace period, 5 s eviction wait — the
// failover workload's NoExecute flow).
const (
	syncDelay          = 50 * time.Millisecond
	resyncInterval     = 5 * time.Second
	burstReplicas      = 4
	nodeMonitorPeriod  = 5 * time.Second
	nodeGracePeriod    = 40 * time.Second
	evictionWait       = 5 * time.Second
	gcInterval         = 10 * time.Second
	podGCMinAge        = 30 * time.Second
	taintUnreachable   = "node.kubernetes.io/unreachable"
	managerIdentity    = "kcm"
	conflictRetryDelay = 200 * time.Millisecond
)

// Options configure the manager.
type Options struct {
	// Identity distinguishes replicas in a redundant control plane.
	Identity string
}

// Manager wires all controllers behind one leader election.
//
// All controllers share one informer view set (an apiserver.Reflector over
// the kinds they reconcile): watch events update the views first and are
// then routed to the controllers' work queues, so a sync handler reads the
// same local state the event announced — the informer architecture — and
// the per-sync server re-lists of earlier revisions are gone. The periodic
// resync both reconciles the views against the server (the safety net for
// lost watch events) and re-enqueues everything level-triggered.
type Manager struct {
	loop    *sim.Loop
	client  *apiserver.Client
	elector *election.Elector

	deployments *deploymentController
	replicaSets *replicaSetController
	daemonSets  *daemonSetController
	endpoints   *endpointsController
	nodes       *nodeLifecycleController
	gc          *garbageCollector

	// views is the shared informer view set: started and stopped with the
	// controllers, and re-primed from the server at every start.
	views *apiserver.Reflector
	// resync is the periodic resyncAll, live while the controllers run.
	resync sim.Timer

	nameSeq int64
	running bool
}

// viewKinds are the kinds the manager's informer views mirror — everything
// any controller reconciles or scans.
var viewKinds = []spec.Kind{
	spec.KindPod, spec.KindReplicaSet, spec.KindDeployment, spec.KindDaemonSet,
	spec.KindService, spec.KindEndpoints, spec.KindNode,
}

// NewManager builds a controller manager whose clients come from eps: its own
// apiserver's, in the co-located deployment every cluster here builds.
func NewManager(loop *sim.Loop, eps *apiserver.Endpoints, opts Options) *Manager {
	if opts.Identity == "" {
		opts.Identity = managerIdentity + "-0"
	}
	m := &Manager{
		loop:   loop,
		client: eps.ClientFor(managerIdentity),
	}
	m.deployments = newDeploymentController(m)
	m.replicaSets = newReplicaSetController(m)
	m.daemonSets = newDaemonSetController(m)
	m.endpoints = newEndpointsController(m)
	m.nodes = newNodeLifecycleController(m)
	m.gc = newGarbageCollector(m)
	// The reflector's own periodic resync is disabled: resyncAll reconciles
	// explicitly so view repair and the level-triggered re-enqueue happen on
	// one schedule.
	m.views = apiserver.NewReflector(m.loop, m.client, 0, m.route, viewKinds...)
	m.elector = election.New(loop, eps.ClientFor(opts.Identity), election.Config{
		LeaseName:        "kube-controller-manager",
		Identity:         opts.Identity,
		OnStartedLeading: m.startControllers,
		OnStoppedLeading: m.stopControllers,
	})
	return m
}

// Start begins campaigning; the controllers run while the manager leads.
func (m *Manager) Start() { m.elector.Start() }

// Stop halts everything.
func (m *Manager) Stop() {
	m.elector.Stop()
	m.stopControllers()
}

// Reset returns the manager to the state NewManager left it in, keeping the
// memory of its views, queues and indexes: not campaigning, controllers idle
// with nothing queued or remembered, child-name counter at zero. Nothing is
// cancelled or released — the loop, the server and the store the manager
// acted on are being reset with it.
func (m *Manager) Reset() {
	m.elector.Reset()
	m.running = false
	m.resync = sim.Timer{}
	m.views.Reset()
	for _, c := range m.controllers() {
		c.reset()
	}
	m.nameSeq = 0
}

// IsLeading reports whether the controllers are active.
func (m *Manager) IsLeading() bool { return m.running }

func (m *Manager) startControllers() {
	if m.running {
		return
	}
	m.running = true
	for _, c := range m.controllers() {
		c.start()
	}
	// The shared views prime from the server's current state (a fork or
	// restart re-list) and route every subsequent event to the controllers.
	m.views.Start()
	m.resync = m.loop.Every(resyncInterval, m.resyncAll)
	m.resyncAll()
}

func (m *Manager) stopControllers() {
	if !m.running {
		return
	}
	m.running = false
	m.views.Stop()
	m.resync.Stop()
	for _, c := range m.controllers() {
		c.stop()
	}
}

type subController interface {
	start()
	stop()
	// reset forgets everything the controller queued, indexed or remembered,
	// keeping the memory (see Manager.Reset).
	reset()
	// enqueueFor reacts to a watch event.
	enqueueFor(ev apiserver.WatchEvent)
	// resync enqueues everything the controller owns.
	resync()
}

func (m *Manager) controllers() []subController {
	return []subController{m.deployments, m.replicaSets, m.daemonSets, m.endpoints, m.nodes, m.gc}
}

func (m *Manager) route(ev apiserver.WatchEvent) {
	if !m.running {
		return
	}
	for _, c := range m.controllers() {
		c.enqueueFor(ev)
	}
}

func (m *Manager) resyncAll() {
	if !m.running {
		return
	}
	// Reconcile the views first: entries a lost watch event left stale are
	// repaired and re-announced through route, so the queues below always
	// enqueue against repaired state.
	m.views.Resync()
	for _, c := range m.controllers() {
		c.resync()
	}
}

// nextName derives a deterministic unique child name, standing in for the
// random suffixes of real Kubernetes.
func (m *Manager) nextName(base string) string {
	m.nameSeq++
	return fmt.Sprintf("%s-%05d", base, m.nameSeq)
}

// NameSeq exposes the child-name counter for cluster snapshots.
func (m *Manager) NameSeq() int64 { return m.nameSeq }

// ResumeNameSeq restores the child-name counter in a forked cluster. The
// controllers themselves hold no authoritative state (their caches rebuild
// from watches and resyncs), but a fork whose counter restarted at zero
// would mint child names that collide with bootstrap-era objects.
func (m *Manager) ResumeNameSeq(seq int64) { m.nameSeq = seq }

// templateHash mirrors the pod-template-hash mechanism: deployments stamp
// their ReplicaSets and pods with a hash of the pod template, so template
// corruption surfaces as a new hash — triggering a rolling update.
func templateHash(tpl spec.PodTemplate) string {
	b, err := codec.Marshal(&tpl)
	if err != nil {
		b = []byte(fmt.Sprint(tpl))
	}
	h := fnv.New32a()
	_, _ = h.Write(b)
	return fmt.Sprintf("%08x", h.Sum32())
}

func splitKey(key string) (namespace, name string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return key[:i], key[i+1:]
		}
	}
	return "", key
}

func objKey(o spec.Object) string {
	return o.Meta().NamespacedName() // cached on sealed objects
}
