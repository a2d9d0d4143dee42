// Package cluster assembles the full simulated orchestration system: data
// store, API server, controller manager, scheduler, one kubelet per node,
// and the virtual network — in the paper's testbed shape (one control-plane
// node plus four workers, one of which is reserved for the application
// client and monitoring).
//
// # Bootstrapped-cluster snapshots
//
// Booting a cluster to a settled state costs ~20 s of simulated time, which
// dominates an injection experiment whose measurement window is 45 s. The
// snapshot/fork subsystem (snapshot.go) amortizes it: bootstrap once, call
// Cluster.Snapshot at the settled instant, then Snapshot.Fork(seed) per
// experiment — or, to keep the cluster's memory between experiments,
// Cluster.Rewind after one and Snapshot.Restore before the next. Either way
// the cluster resumes the snapshot's store contents, virtual clock, and
// event-budget accounting, and every component restarts over that state —
// the same re-list/reconcile path components walk after a real restart — so
// only the injection window is simulated.
//
// # Seed-split semantics
//
// A forked experiment draws from two random streams: the bootstrap ran
// under the snapshot's canonical seed (one per workload/topology), and the
// fork's window runs under the per-experiment seed. A full replay instead
// threads the per-experiment seed through bootstrap and window alike, and
// timer phases relative to the window differ slightly between the two
// (forked components restart their periodic timers at the fork instant).
// Forked and replayed runs of the same spec are therefore NOT bit-identical
// — the contract is distributional: golden baselines built from forks and
// injected forks shift together, so for deterministic faults the OF
// classification is preserved per experiment and the CF classification is
// preserved up to threshold-adjacent HRT ties (the client z-score rides the
// 2.0 threshold exactly as it does between two seeds); faults that are
// themselves randomized (proto-byte flips) draw a different corruption per
// regime by construction. The campaign's equivalence test asserts all of
// this plus table-level count stability. Campaigns that need bit-level
// reproducibility against historical results keep the full-replay path
// (campaign.Config.ShareBootstrap = false); forking is deterministic within
// itself — the same snapshot and seed always yield the same experiment.
package cluster

import (
	"fmt"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/controller"
	"github.com/mutiny-sim/mutiny/internal/guard"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/kubelet"
	"github.com/mutiny-sim/mutiny/internal/netsim"
	"github.com/mutiny-sim/mutiny/internal/scheduler"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// ControlPlaneNode is the node name of the (first) control plane.
const ControlPlaneNode = "cp-0"

// ControlPlaneTaint repels application pods from the control-plane node.
const ControlPlaneTaint = "node-role.kubernetes.io/control-plane"

// MonitoringTaint reserves the monitoring node for client/monitoring pods.
const MonitoringTaint = "dedicated"

// The core node class: the paper's 8-CPU, 4 GB VMs. In a zoned cluster
// regional nodes get half, edge nodes a quarter.
const (
	nodeMilliCPU = 8000
	nodeMemMB    = 4096
)

// Config parameterizes the cluster.
type Config struct {
	// Seed drives all randomness in the simulation.
	Seed int64
	// Workers is the number of worker nodes (default 4; the last one is
	// reserved for monitoring, mirroring §V-A).
	Workers int
	// ControlPlaneReplicas selects the §V-C1 ablation: >1 runs a
	// raft-replicated store (one member, no raft, by default).
	ControlPlaneReplicas int
	// Zones spreads the nodes over a cloud-edge topology: zone 0 is the
	// cloud core (control plane, monitoring, and a share of the workers),
	// the last zone is the edge, anything between is regional. 0 or 1 (the
	// default) is the flat single-zone network of the paper's testbed.
	Zones int
	// EdgeNodes is how many workers land in the edge zone; zero with
	// Zones >= 2 defaults to an equal share (workers / Zones).
	EdgeNodes int
	// EnableFieldGuard installs the §VI-B critical-field guard: changes to
	// dependency/identity/networking fields are journaled, monitored, and
	// rolled back when the cluster degrades.
	EnableFieldGuard bool
	// CriticalFieldChecksums installs the §VI-B redundancy codes on critical
	// fields (see apiserver.Options).
	CriticalFieldChecksums bool
	// AdmissionHooks installs the first N standard governance webhooks
	// (defaulter, image-policy, limits-policy) as an admission chain shared
	// by every apiserver replica. Zero (the default) means no chain and zero
	// write-path cost.
	AdmissionHooks int
	// FailurePolicy is the configured failure policy of every admission hook:
	// "Fail" (fail-closed) or "Ignore" (fail-open, the platform default when
	// empty). Per-experiment overrides ride on the injection spec instead.
	FailurePolicy string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.ControlPlaneReplicas < 1 {
		c.ControlPlaneReplicas = 1
	}
	return c
}

// Cluster is one fully wired simulated cluster.
//
// Servers holds one apiserver per control-plane replica (each bound to its own
// store replica), Endpoints is the client factory over all of them that every
// component not on the control plane uses, and Managers/Scheds hold one
// controller manager and scheduler per replica, each pinned to its own
// apiserver (the co-located deployment kubeadm builds) and leader-elected so
// exactly one of each is active. With Config.ControlPlaneReplicas > 1 the
// control plane is highly available and Endpoints' clients fail over; with
// one replica every slice has one element and Endpoints one member. Server,
// Manager and Scheduler always alias replica 0 for single-control-plane
// callers.
type Cluster struct {
	cfg Config

	Loop      *sim.Loop
	Backend   *store.Replicated
	Server    *apiserver.Server
	Manager   *controller.Manager
	Scheduler *scheduler.Scheduler
	Net       *netsim.State
	Kubelets  map[string]*kubelet.Kubelet
	guard     *guard.Guard

	// The control plane's replicas (len 1 with a single replica).
	Servers   []*apiserver.Server
	Managers  []*controller.Manager
	Scheds    []*scheduler.Scheduler
	Endpoints *apiserver.Endpoints
	// admission is the webhook chain shared by every apiserver replica;
	// nil when Config.AdmissionHooks is zero.
	admission *apiserver.AdmissionChain
	// probe is the cluster's own read client, for the guard's health checks
	// and the topology probe.
	probe *apiserver.Client
	// ownClients is how many of Endpoints' clients the cluster's own
	// components hold; the ones handed out later belong to an experiment and
	// are forgotten by Rewind.
	ownClients int
	// nodeOrder preserves kubelet creation order: Start/Stop must not
	// iterate the Kubelets map, since map order would randomize heartbeat
	// timer scheduling between runs and break bit-reproducibility.
	nodeOrder []string
	// monitoring caches the monitoring node's name: the application client
	// asks for it on every one of its 600 requests per experiment.
	monitoring string
	// zoneByNode / zoneNodes index zone membership (creation order preserved
	// per zone); empty maps on flat clusters.
	zoneByNode map[string]string
	zoneNodes  map[string][]string

	started bool
}

// Fingerprint returns a canonical string covering every configuration field
// after defaulting. Two configs with equal fingerprints build behaviorally
// identical clusters for the same seed; the campaign's process-wide
// bootstrap-snapshot cache keys on it. Config holds plain values only (see
// TestClusterConfigIsAPlainValue), so printing it covers every field, a
// future one included.
func (c Config) Fingerprint() string {
	return fmt.Sprintf("%+v", c.withDefaults())
}

// Clone returns a copy of the config: Config is a plain value, so a copy is
// an assignment. It stays for the benchmark harness (bench/), which calls it.
func (c Config) Clone() Config { return c }

// New builds a cluster; call Start to boot it, then drive Loop.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	loop := sim.NewLoop(cfg.Seed)
	return assemble(cfg, loop, store.NewReplicated(loop, cfg.ControlPlaneReplicas, nil))
}

// assemble wires all components over a loop and an empty store with one
// member per control-plane replica.
func assemble(cfg Config, loop *sim.Loop, backend *store.Replicated) *Cluster {
	n := cfg.ControlPlaneReplicas
	servers := make([]*apiserver.Server, n)
	opts := &apiserver.Options{CriticalFieldChecksums: cfg.CriticalFieldChecksums}
	for i := range servers {
		servers[i] = apiserver.NewAt(loop, backend, i, opts)
		// Disjoint UID/IP residues per replica: replica i admits i, i+n,
		// i+2n, ... so creates routed through different apiservers after a
		// failover can never collide.
		servers[i].SetAdmissionStride(i, n)
	}
	// One audit trail and one decode cache for the whole control plane,
	// whichever replica served.
	for i := 1; i < n; i++ {
		servers[i].SetAudit(servers[0].Audit())
		servers[i].SetDecodeCache(servers[0].DecodeCache())
	}
	eps := apiserver.NewEndpoints(loop, servers...)

	// One manager/scheduler pair per control-plane replica, each pinned to
	// its co-located apiserver; leader election picks the active pair.
	managers := make([]*controller.Manager, n)
	scheds := make([]*scheduler.Scheduler, n)
	for i := range managers {
		var mopts controller.Options
		var sopts scheduler.Options
		if i > 0 {
			mopts.Identity = fmt.Sprintf("kcm-%d", i)
			sopts.Identity = fmt.Sprintf("kube-scheduler-%d", i)
		}
		managers[i] = controller.NewManager(loop, servers[i].Endpoints(), mopts)
		scheds[i] = scheduler.New(loop, servers[i].Endpoints(), sopts)
	}

	c := &Cluster{
		cfg:        cfg,
		Loop:       loop,
		Backend:    backend,
		Server:     servers[0],
		Servers:    servers,
		Manager:    managers[0],
		Managers:   managers,
		Scheduler:  scheds[0],
		Scheds:     scheds,
		Endpoints:  eps,
		Net:        netsim.New(loop, eps),
		Kubelets:   make(map[string]*kubelet.Kubelet),
		monitoring: fmt.Sprintf("worker-%d", cfg.Workers-1),
	}
	if cfg.AdmissionHooks > 0 {
		// Webhook backends live on the non-monitoring worker nodes (round-
		// robin), so they are reachable through the virtual network and share
		// fate with the data plane. One chain serves every replica: admission
		// configuration is cluster state, like the shared audit trail.
		backends := make([]string, 0, cfg.Workers)
		for i := 0; i < cfg.Workers; i++ {
			if name := fmt.Sprintf("worker-%d", i); name != c.monitoring {
				backends = append(backends, name)
			}
		}
		chain := apiserver.NewAdmissionChain(apiserver.FailurePolicy(cfg.FailurePolicy),
			apiserver.StandardAdmissionHooks(cfg.AdmissionHooks, backends)...)
		chain.SetReachability(c.Net.RoutesUp)
		for _, srv := range servers {
			srv.SetAdmissionChain(chain)
		}
		c.admission = chain
	}
	if cfg.EnableFieldGuard {
		c.guard = guard.New(loop, eps, c.guardHealth)
		c.hookGuard(nil)
	}
	c.zoneByNode = make(map[string]string)
	c.zoneNodes = make(map[string][]string)
	c.addKubelet(ControlPlaneNode, 0, map[string]string{spec.LabelNodeRole: "control-plane"}, 0)
	for i := 0; i < cfg.Workers; i++ {
		name := fmt.Sprintf("worker-%d", i)
		labels := map[string]string{spec.LabelNodeRole: "worker"}
		if name == c.monitoringNode() {
			labels["role"] = "monitoring"
		}
		c.addKubelet(name, i+1, labels, cfg.zoneOfWorker(i))
	}
	c.probe = eps.ClientFor("cluster-probe")
	c.ownClients = eps.ClientCount()
	return c
}

// zoneOfWorker places worker i: the monitoring worker stays in the core with
// the control plane, the last EdgeNodes workers form the edge zone, and the
// rest round-robin over the core and regional zones.
func (c Config) zoneOfWorker(i int) int {
	if c.Zones < 2 || i == c.Workers-1 {
		return 0
	}
	w := c.Workers - 1 // workers outside the monitoring reservation
	edge := c.EdgeNodes
	if edge <= 0 {
		edge = w / c.Zones
	}
	if edge > w {
		edge = w
	}
	if i >= w-edge {
		return c.Zones - 1
	}
	return i % (c.Zones - 1)
}

// nodeClass scales the core node class by zone: core nodes are the
// paper's full-size VMs, regional nodes half, edge devices a quarter —
// the heterogeneous node classes of cloud-edge deployments.
func (c Config) nodeClass(zone int) (cpu, mem int64) {
	cpu, mem = nodeMilliCPU, nodeMemMB
	if c.Zones < 2 || zone == 0 {
		return cpu, mem
	}
	if zone == c.Zones-1 {
		return cpu / 4, mem / 4
	}
	return cpu / 2, mem / 2
}

func (c *Cluster) addKubelet(name string, cidrIndex int, labels map[string]string, zone int) {
	cpu, mem := c.cfg.nodeClass(zone)
	if zoneName := netsim.ZoneName(zone, c.cfg.Zones); zoneName != "" {
		labels[netsim.LabelZone] = zoneName
		c.zoneByNode[name] = zoneName
		c.zoneNodes[zoneName] = append(c.zoneNodes[zoneName], name)
	}
	c.nodeOrder = append(c.nodeOrder, name)
	c.Kubelets[name] = kubelet.New(c.Loop, c.Endpoints, kubelet.Config{
		NodeName:         name,
		CapacityMilliCPU: cpu,
		CapacityMemMB:    mem,
		// The third octet widens into the second past index 255, so 500+
		// node clusters keep one /24 per node (10.244.x → 10.245.x → …).
		PodCIDR: fmt.Sprintf("10.%d.%d.0/24", 244+cidrIndex/256, cidrIndex%256),
		Labels:  labels,
	})
}

func (c *Cluster) monitoringNode() string {
	// The last worker hosts the application client and monitoring pods.
	return c.monitoring
}

// MonitoringNode returns the node reserved for client/monitoring pods.
func (c *Cluster) MonitoringNode() string { return c.monitoringNode() }

// Client returns an API client with the given identity ("kbench" for the
// cluster user driving the workloads). In an HA control plane the client is
// failover-aware.
func (c *Cluster) Client(identity string) *apiserver.Client {
	return c.Endpoints.ClientFor(identity)
}

// Start boots the cluster: registers nodes, installs the system workloads,
// and starts the control plane. Drive c.Loop afterwards.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	for _, name := range c.nodeOrder {
		c.Kubelets[name].Start()
	}
	c.applyNodeRoles()
	c.installSystemWorkloads()
	// Stagger the standby control loops well past raft leader election and
	// the first lease replication (~300 ms): a standby whose first tick runs
	// before the leader's lease create reaches its own store replica would
	// create a second, divergent lease through it — members join one
	// kubeadm-join at a time, they don't race the first one.
	c.startControlLoops(2 * time.Second)
}

// startControlLoops starts the replica-0 manager/scheduler immediately and
// the standby pairs at i*stagger. Forks pass zero: their leases are restored
// on every replica already, so there is nothing to race.
func (c *Cluster) startControlLoops(stagger time.Duration) {
	c.Managers[0].Start()
	c.Scheds[0].Start()
	for i := 1; i < len(c.Managers); i++ {
		m, s := c.Managers[i], c.Scheds[i]
		if stagger == 0 {
			m.Start()
			s.Start()
			continue
		}
		c.Loop.After(time.Duration(i)*stagger, func() {
			m.Start()
			s.Start()
		})
	}
}

// Stop halts all components.
func (c *Cluster) Stop() {
	for _, m := range c.Managers {
		m.Stop()
	}
	for _, s := range c.Scheds {
		s.Stop()
	}
	for _, name := range c.nodeOrder {
		c.Kubelets[name].Stop()
	}
	c.Net.Close()
}

// Rewind returns the cluster to the state New left it in — assembled, empty,
// not started — without giving up its memory: the component graph stays, every
// table is emptied in place, and everything an experiment attached (injector
// hooks, its clients and their watches, timers) or left behind (crashed
// servers, lost replicas, cut links, downed nodes, webhook faults) is gone.
// Nothing is stopped or cancelled first, so no component gets to write a
// farewell (a released lease, say) into a store that is about to be emptied.
// Snapshot.Restore turns a rewound cluster into what Fork returns; Rewind runs
// at the end of an experiment so that an idle cluster holds no objects.
//
// The order is assemble's: each component re-registers what its constructor
// registered (the servers their store watches, the data plane its five
// watches), and registration order is delivery order.
func (c *Cluster) Rewind() {
	c.Loop.Reset()
	c.Backend.Reset()
	for _, srv := range c.Servers {
		srv.Reset()
	}
	c.Endpoints.Reset(c.ownClients)
	for i, m := range c.Managers {
		m.Reset()
		c.Scheds[i].Reset()
	}
	c.Net.Reset()
	if c.admission != nil {
		c.admission.Reset()
	}
	if c.guard != nil {
		c.guard.Reset()
		c.hookGuard(nil)
	}
	for _, name := range c.nodeOrder {
		c.Kubelets[name].Reset()
	}
	c.started = false
}

// AwaitSettled drives the loop until the system pods are ready or the
// deadline passes; it reports whether the cluster settled.
func (c *Cluster) AwaitSettled(deadline time.Duration) bool {
	admin := c.Client("bootstrap")
	for c.Loop.Now() < deadline {
		c.Loop.RunUntil(c.Loop.Now() + time.Second)
		if c.systemReady(admin) {
			return true
		}
	}
	return c.systemReady(admin)
}

func (c *Cluster) systemReady(admin *apiserver.Client) bool {
	// Network manager on every node (view reads: the probe only inspects).
	nodes := admin.List(spec.KindNode, "")
	for _, no := range nodes {
		if !c.Net.RoutesUp(no.Meta().Name) {
			return false
		}
	}
	if !c.Net.DNSHealthy() {
		return false
	}
	// Monitoring stack serving.
	obj, err := admin.Get(spec.KindDeployment, spec.SystemNamespace, "prometheus")
	if err != nil {
		return false
	}
	d := obj.(*spec.Deployment)
	return d.Status.ReadyReplicas >= d.Spec.Replicas
}

// ControlPlaneResponsive reports whether the reconciliation machinery is
// able to act: some manager leading, some scheduler running, store accepting
// writes. In an HA control plane any replica's active pair counts — the gap
// between a leader's crash and a standby's takeover is exactly the window
// this reports false for.
func (c *Cluster) ControlPlaneResponsive() bool {
	leading, running := false, false
	for _, m := range c.Managers {
		leading = leading || m.IsLeading()
	}
	for _, s := range c.Scheds {
		running = running || s.IsRunning()
	}
	if !leading || !running {
		return false
	}
	return !c.Backend.QuotaExceeded()
}

// Guard returns the critical-field guard, or nil when not enabled.
func (c *Cluster) Guard() *guard.Guard { return c.guard }

// AttachInjector wires an injector into the cluster's channels, preserving
// the guard's observation point (the guard must see the tampered bytes, just
// as it would see the corrupted transaction in a real deployment). Every
// apiserver replica gets the hooks — a fault must fire no matter which
// replica serves the matching message — and the injector gets the cluster as
// its platform handle for the timed fault axes.
func (c *Cluster) AttachInjector(j *inject.Injector) {
	for _, srv := range c.Servers {
		j.AttachTo(srv)
	}
	if c.guard != nil {
		c.hookGuard(j.Hook(inject.ChannelStore))
	}
	j.AttachPlatform(c)
}

// hookGuard puts the field guard on every server's store channel, behind
// next (an injector's hook) when there is one.
func (c *Cluster) hookGuard(next apiserver.Hook) {
	for _, srv := range c.Servers {
		srv.SetStoreWriteHook(c.guard.Hook(next))
	}
}

// Admission returns the shared admission chain, or nil when no hooks are
// configured.
func (c *Cluster) Admission() *apiserver.AdmissionChain { return c.admission }

// AdmissionDegraded reports whether webhook downtime is currently being
// turned into write rejections (some fail-closed hook unreachable). False
// with no chain configured.
func (c *Cluster) AdmissionDegraded() bool {
	return c.admission != nil && c.admission.Degraded()
}

// AdmissionViolations returns the running count of policy-violating objects
// admitted past a skipped hook (fail-open or broken selector). Zero with no
// chain configured.
func (c *Cluster) AdmissionViolations() int {
	if c.admission == nil {
		return 0
	}
	return int(c.admission.ViolationsAdmitted())
}

func (c *Cluster) guardHealth() guard.Health {
	active := 0
	for _, po := range c.probe.List(spec.KindPod, "") {
		if po.(*spec.Pod).Active() {
			active++
		}
	}
	return guard.Health{
		ControlPlaneResponsive: c.ControlPlaneResponsive(),
		NetworkPodsFailing:     c.Net.NetworkPodsFailing(),
		DNSHealthy:             c.Net.DNSHealthy(),
		ActivePods:             active,
	}
}

// --- control-plane fault axes -------------------------------------------------
//
// Together with Admission and the topology section below these implement
// inject.Platform: the timed HA fault axes act through them. They are also
// callable directly from tests and scenarios.

// Replicas returns the number of control-plane replicas.
func (c *Cluster) Replicas() int { return len(c.Servers) }

// SetAPIServerDown crashes apiserver replica i — it stops serving (requests
// time out, watches fall silent) and every client homed on it fails over: the
// eager sweep models the broken TCP connections a crashed apiserver leaves —
// or restarts it: it rebuilds its watch cache from its store replica and
// resumes serving.
func (c *Cluster) SetAPIServerDown(i int, down bool) {
	c.Servers[i].SetDown(down)
	if down {
		c.Endpoints.NoteServerDown(i)
	}
}

// SetMasterIsolated cuts control-plane replica i off from its peers: its
// store replica loses quorum (writes through apiserver i fail, clients fail
// over), while its apiserver keeps serving progressively staler reads — the
// stale-read window the campaign measures. Undoing it heals every replica
// link; the replicated store flushes writes queued on the majority side and
// the isolated replica catches up. A one-member store has no links to cut:
// the fault is a no-op there.
func (c *Cluster) SetMasterIsolated(i int, isolated bool) {
	rep := c.Backend
	if rep.Replicas() < 2 {
		return
	}
	if !isolated {
		rep.Heal()
		return
	}
	rest := make([]int, 0, rep.Replicas()-1)
	for j := 0; j < rep.Replicas(); j++ {
		if j != i {
			rest = append(rest, j)
		}
	}
	rep.Partition([]int{i}, rest)
}

// SetStoreReplicaLost destroys the backing store replica of apiserver i —
// disk loss under one etcd member: the member leaves the raft group, and
// reads and writes through apiserver i fail — or rebuilds it from a surviving
// member's snapshot and restarts apiserver i over it. A one-member store has
// no surviving member to restore from: the fault is a no-op there.
func (c *Cluster) SetStoreReplicaLost(i int, lost bool) {
	if c.Backend.Replicas() < 2 {
		return
	}
	if lost {
		c.Backend.DropReplica(i)
		return
	}
	c.Backend.RestoreReplica(i)
	c.Servers[i].Restart()
}

// --- topology fault axes ------------------------------------------------------
//
// The topology part of inject.Platform: the timed cloud-edge fault axes
// (edge-link flap, zone partition, mass node-kill) act through them. The
// virtual network owns the link state; the cluster mirrors a severed zone
// uplink into the zone's kubelets (their heartbeats cross the same link the
// data plane lost).

// Zones returns the number of topology zones (1 for flat clusters).
func (c *Cluster) Zones() int {
	if c.cfg.Zones < 2 {
		return 1
	}
	return c.cfg.Zones
}

// ZoneName names zone i of this cluster's topology.
func (c *Cluster) ZoneName(i int) string { return netsim.ZoneName(i, c.cfg.Zones) }

// ZoneNodes returns the nodes of a zone in creation order.
func (c *Cluster) ZoneNodes(zone string) []string { return c.zoneNodes[zone] }

// SetZonePartitioned severs a zone's uplink: cross-zone traffic times out and
// the zone's kubelets lose the control plane (heartbeats stop — the node
// lifecycle controller takes it from there if the cut outlives the grace
// period), while intra-zone traffic keeps flowing. Undoing it restores both.
func (c *Cluster) SetZonePartitioned(zone string, cut bool) {
	c.Net.SetZoneLink(zone, !cut)
	c.setZoneKubelets(zone, cut)
}

// SetZoneLink cuts or restores a zone's uplink at the data plane only — the
// edge-link flap axis, whose down phases are far shorter than the heartbeat
// grace period, so the control plane never reacts.
func (c *Cluster) SetZoneLink(zone string, up bool) {
	c.Net.SetZoneLink(zone, up)
}

// SetZoneNodesDown crashes every node of a zone at once (the mass node-kill
// axis): kubelets stop dead and the nodes' links drop, so even intra-zone
// requests to their pods time out. Undoing it recovers them.
func (c *Cluster) SetZoneNodesDown(zone string, down bool) {
	for _, name := range c.zoneNodes[zone] {
		if name == ControlPlaneNode {
			continue
		}
		c.Kubelets[name].SetDown(down)
		c.Net.SetNodeLink(name, !down)
	}
}

// setZoneKubelets mirrors a zone partition into kubelet connectivity: a cut
// core uplink severs every *other* zone from the control plane; any other
// cut severs that zone's own kubelets.
func (c *Cluster) setZoneKubelets(zone string, down bool) {
	core := netsim.ZoneName(0, c.cfg.Zones)
	if zone == core {
		for _, name := range c.nodeOrder {
			if name != ControlPlaneNode && c.zoneByNode[name] != core {
				c.Kubelets[name].SetDown(down)
			}
		}
		return
	}
	for _, name := range c.zoneNodes[zone] {
		if name != ControlPlaneNode {
			c.Kubelets[name].SetDown(down)
		}
	}
}

// TopologyDegraded reports whether a topology fault is currently applied —
// the collector's disruption-window probe.
func (c *Cluster) TopologyDegraded() bool { return c.Net.TopologyImpaired() }

// TopologyConverged reports whether the cluster has re-converged after a
// topology fault: links restored, kubelets heartbeating, routes up on every
// node, and no NoExecute wreckage left on the node objects — the probe the
// recovery window is measured against.
func (c *Cluster) TopologyConverged() bool {
	if c.Net.TopologyImpaired() {
		return false
	}
	for _, name := range c.nodeOrder {
		if c.Kubelets[name].IsDown() || !c.Net.RoutesUp(name) {
			return false
		}
	}
	for _, obj := range c.probe.List(spec.KindNode, "") {
		node := obj.(*spec.Node)
		if !node.Status.Ready {
			return false
		}
		for _, t := range node.Spec.Taints {
			if t.Effect == spec.TaintNoExecute {
				return false
			}
		}
	}
	return true
}

// StoreLagMax returns the largest revision lag of any live store replica
// behind the most advanced one — 0 when converged or with a single member.
// A positive lag means some apiserver is serving a stale view: the
// campaign's stale-read-window probe.
func (c *Cluster) StoreLagMax() int64 {
	rep := c.Backend
	max := rep.MaxRevision()
	var lag int64
	for i := 0; i < rep.Replicas(); i++ {
		if rep.ReplicaDown(i) {
			continue
		}
		if d := max - rep.RevisionAt(i); d > lag {
			lag = d
		}
	}
	return lag
}
