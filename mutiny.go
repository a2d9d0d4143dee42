// Package mutiny is a fault/error-injection framework for container
// orchestration systems, reproducing "Mutiny! How does Kubernetes fail, and
// what can we do about it?" (Barletta, Cinque, Di Martino, Kalbarczyk, Iyer —
// DSN 2024).
//
// The library bundles three things:
//
//   - a complete, deterministic simulation of a Kubernetes-shaped
//     orchestration system (data store, API server, controller manager,
//     scheduler, kubelets, virtual network) faithful to the resiliency
//     strategies the paper examines;
//   - Mutiny, the injector that tampers with the serialized state crossing
//     the apiserver↔store and component↔apiserver channels using the paper's
//     three fault models (bit flips, data-type sets, message drops) and
//     occurrence-index triggers;
//   - the experimental method around it: kbench-style workloads, an
//     application client, golden-run baselines, the two-level failure
//     classification (orchestrator- and client-level), campaign generation,
//     and the field failure data analysis of 81 real-world incidents.
//
// # Quick start
//
//	runner := mutiny.NewRunner()
//	runner.GoldenRuns = 20 // paper default is 100
//	res := runner.Run(mutiny.Spec{
//	    Workload: mutiny.WorkloadDeploy,
//	    Seed:     1,
//	    Injection: &mutiny.Injection{
//	        Channel:   mutiny.ChannelStore,
//	        Kind:      mutiny.KindReplicaSet,
//	        FieldPath: "spec.template.labels[app]",
//	        Type:      mutiny.SetValue,
//	        Value:     "mislabeled",
//	        Occurrence: 2,
//	    },
//	})
//	fmt.Println(res.OF, res.CF) // e.g. "Sta SU"
//
// Full campaigns (Tables III–V, Figures 6–7 of the paper) run through
// RunCampaign; see the examples directory and the commands: mutiny-ffda
// prints Tables I and VII, mutiny-campaign Tables III–VI and Figures 6–7, and
// mutiny-inject one experiment with its Figure 5. internal/report's tests
// hold the paper's findings and claims.
//
// # Performance model
//
// Campaign wall-clock is dominated by per-experiment simulation cost, which
// these mechanisms keep low:
//
//   - Copy-on-write objects. API reads (APIClient.Get/List, watch events)
//     return sealed, immutable references shared with the server's watch
//     cache — zero copies per read or per watch dispatch. Callers may read
//     and retain them freely; to modify one for an Update, obtain a private
//     copy via CloneForWrite first. The store applies the same discipline to
//     value bytes (stored arrays are immutable; snapshots and forks alias
//     them), and the codec interns hot decoded strings (names, namespaces,
//     label keys/values) process-wide through a sharded copy-on-write table
//     (internal/cow: a hit is one atomic load plus a map lookup). Sealing an
//     object runs small label/selector maps through the same kind of table,
//     so the thousands of objects carrying {"app": "web"} share one
//     canonical map instance; clones still deep-copy maps back out, keeping
//     the mutable-clone contract.
//
//   - A watch-driven readiness pipeline. Components no longer poll: the
//     workload driver's readiness waits, the application client's VIP
//     resolution, the controllers' reconcile scans, and the scheduler's
//     world snapshots all read informer-style local views (apiserver
//     Reflector) maintained by the sealed watch fan-out, with a
//     low-frequency resync re-list as the safety net. The driver wakes on
//     the exact event that completes a rollout (sim.Loop.RunUntilStopped)
//     instead of a poll boundary, and per-sync server re-lists are gone.
//     The watch stream itself is the third injectable channel
//     (ChannelWatch): campaigns can drop or corrupt the notifications the
//     pipeline depends on, and the views degrade to bounded staleness
//     repaired at the next resync.
//
//   - A lean event path. The scheduler pools event structs and rearms
//     periodic timers in place (no allocation per tick), a stopped timer
//     leaves the heap at once, and a fixed-delay queue holds one heap entry
//     however many values wait in it.
//     Watch fan-out is batched at both hops (store→apiserver and
//     apiserver→watchers): each committed change schedules one loop event
//     that delivers the sealed object to every subscriber in registration
//     order — identical delivery order to per-watcher scheduling at a
//     fraction of the heap traffic. List reads are served from per-kind
//     key-sorted indexes, identity keys are cached at seal time, and
//     validation runs hand-rolled character-class matchers instead of
//     backtracking regexes.
//
//   - A revision-tagged decoded-object cache, elided in both directions.
//     The API server keeps the sealed decoded form of each store key tagged
//     with its mod revision, primed directly by untampered writes. Conflict
//     checks, watch ingest, and cache rebuilds (restarts, forks — snapshots
//     carry the cache) skip the backend-byte decode when the tag matches.
//     An entry a write primed also records where its stored array's status
//     record starts, so a status-only update — the hottest write class
//     (kubelet heartbeats, pod phase transitions, controller status syncs)
//     — clones just the status section (metadata and spec stay shared with
//     the sealed source) and splices a freshly encoded status record onto
//     the array's metadata+spec prefix, byte-identical to a full re-encode.
//     Byte-level fault semantics survive: tampered store writes are never
//     primed, request-channel faults tamper request bytes that are always
//     encoded fresh, and at-rest corruption installs a new byte array,
//     which the cache (keyed by revision and array) misses by
//     construction, so corrupted bytes are always decoded — and
//     re-encoded — for real.
//
//   - Shared bootstrap snapshots (CampaignConfig.ShareBootstrap, CLI
//     -share-bootstrap). Each experiment resumes a settled per-workload
//     snapshot instead of replaying the ~20 s simulated bootstrap. Snapshots
//     are cached process-wide, keyed on the cluster configuration plus
//     workload, so every Runner in the process bootstraps each workload at
//     most once. Reflector views established on a resumed cluster prime from
//     the restored store — the same re-list a restarted component performs.
//
//   - Rewind, don't rebuild. A campaign worker forks a snapshot once and
//     keeps the cluster: when an experiment ends the cluster is rewound —
//     every table emptied in place, every hook, watch, timer and fault gone,
//     the component graph (at 500 nodes: 501 kubelets, their clients and
//     indexes) intact — and the next experiment on that snapshot restores it
//     in place. Fork is "allocate an empty cluster, then run that same
//     restore", so the two cannot drift apart. A cluster an experiment blew
//     up (a runaway ReplicaSet, thousands of failed requests) is dropped
//     instead, so no worker sits on a storm's memory.
//
//   - Contention-free parallel execution (CampaignConfig.Parallelism, CLI
//     -parallel). Experiments are isolated simulations merged in generated
//     order; outputs are bit-identical for every worker count. Each worker
//     owns the mutable state its running experiment touches — its
//     classification buffer pool and the per-apiserver codec arenas for
//     encode buffers, inside the rewound cluster it keeps per snapshot — and
//     shares only immutable data: golden baselines, sealed objects, and the
//     bootstrap snapshots every worker restores from.
//
// `go run ./bench` measures all of it: five campaign workloads, end-to-end
// and layer by layer (see bench/README.md). Go's standard profiling flags
// capture lock contention on the parallel path:
// `go test -mutexprofile m.out -blockprofile b.out ./internal/campaign`.
package mutiny

import (
	"github.com/mutiny-sim/mutiny/internal/campaign"
	"github.com/mutiny-sim/mutiny/internal/classify"
	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// Core experiment types.
type (
	// Runner executes experiments and caches golden baselines per workload.
	Runner = campaign.Runner
	// Spec describes one experiment: a workload and an optional injection.
	Spec = campaign.Spec
	// Result is a classified experiment outcome.
	Result = campaign.Result
	// Aggregate accumulates results into the paper's tables.
	Aggregate = campaign.Aggregate
	// WindowKey addresses one row of Aggregate.Windows: a timed fault axis
	// plus its sub-key (failure policy or zone).
	WindowKey = campaign.WindowKey
	// CampaignConfig parameterizes a full campaign.
	CampaignConfig = campaign.Config
	// CampaignOutput bundles a campaign's aggregates.
	CampaignOutput = campaign.Output
	// PropagationCell is one Table VI cell (Inj/Prop/Err).
	PropagationCell = campaign.PropagationCell

	// Injection is the (where, what, when) fault triple.
	Injection = inject.Injection
	// InjectionReport describes what an armed injection did.
	InjectionReport = inject.Report
	// Injector arms injections against an API server.
	Injector = inject.Injector
	// Recorder inventories the fields crossing the store channel.
	Recorder = inject.Recorder
	// RecordedField is one injectable field seen on the wire.
	RecordedField = inject.RecordedField

	// OF is an orchestrator-level failure category.
	OF = classify.OF
	// CF is a client-level failure category.
	CF = classify.CF
	// Observation is what the classifiers read of one experiment window: the
	// scrape envelope, the client's latency series and failure counts, and
	// the window's counters and health probes.
	Observation = classify.Observation
	// Baseline summarizes golden runs for classification.
	Baseline = classify.Baseline

	// Cluster is the simulated orchestration system.
	Cluster = cluster.Cluster
	// ClusterConfig parameterizes the cluster topology.
	ClusterConfig = cluster.Config

	// WorkloadKind names an orchestration workload.
	WorkloadKind = workload.Kind
	// ResourceKind names a resource type of the simulated system.
	ResourceKind = spec.Kind
	// Driver executes one workload against a cluster.
	Driver = workload.Driver
	// Client is the application client measuring a service.
	Client = workload.Client
)

// Injection channels (where).
const (
	// ChannelStore targets apiserver→store transactions (bypasses
	// validation: the paper's main campaign).
	ChannelStore = inject.ChannelStore
	// ChannelRequest targets component→apiserver requests (faces the
	// validation layer: the propagation experiments).
	ChannelRequest = inject.ChannelRequest
	// ChannelWatch targets the apiserver→component watch stream feeding the
	// informer-style readiness pipeline: dropped or corrupted notifications
	// mislead subscribers while the agreed cluster state stays clean.
	// Reflector-backed subscribers repair at their next resync re-list;
	// raw watchers without a re-list (data plane, kubelets) stay stale.
	ChannelWatch = inject.ChannelWatch
)

// Fault models (what).
const (
	// BitFlip flips one bit of a field value.
	BitFlip = inject.BitFlip
	// SetValue replaces a field with an extreme/invalid/wrong value.
	SetValue = inject.SetValue
	// DropMessage discards the message while reporting success.
	DropMessage = inject.DropMessage
	// FlipProtoByte corrupts a random serialization byte.
	FlipProtoByte = inject.FlipProtoByte
)

// Control-plane fault axes (HA clusters, ClusterConfig.ControlPlaneReplicas
// >= 2): time-triggered faults against the control plane itself rather than
// the state crossing its channels.
const (
	// FaultAPIServerCrash kills one apiserver replica; survivors keep
	// serving and its clients fail over. Heal restarts it.
	FaultAPIServerCrash = inject.FaultAPIServerCrash
	// FaultMasterPartition cuts one replica's master links: its apiserver
	// serves stale reads and fails writes until Heal reconnects it.
	FaultMasterPartition = inject.FaultMasterPartition
	// FaultStoreLoss drops one backing store replica; Heal restores it from
	// a surviving member's snapshot.
	FaultStoreLoss = inject.FaultStoreLoss
)

// Admission fault axes (ClusterConfig.AdmissionHooks >= 1): time-triggered
// faults against the admission webhook chain. Injection.Replica indexes the
// target hook; Injection.Policy ("Fail"/"Ignore") fixes the chain-wide
// failure policy for the experiment.
const (
	// FaultWebhookDown crashes one webhook backend; Heal restarts it.
	FaultWebhookDown = inject.FaultWebhookDown
	// FaultWebhookLatency delays one webhook past its call timeout; a hook
	// call never advances the clock, so it sets the same fault as
	// FaultWebhookDown.
	FaultWebhookLatency = inject.FaultWebhookLatency
	// FaultWebhookSelector misconfigures one hook's selector to match nothing.
	FaultWebhookSelector = inject.FaultWebhookSelector
	// FaultWebhookPolicy drops one hook's failurePolicy stanza (the platform
	// default, fail-open, silently applies) and takes its backend down.
	FaultWebhookPolicy = inject.FaultWebhookPolicy
)

// Topology fault axes (zoned cloud-edge clusters, ClusterConfig.Zones >= 2):
// time-triggered faults against the zoned network. Injection.Replica indexes
// the target zone; Injection.Value carries its name for the per-zone tables.
const (
	// FaultEdgeLinkFlap toggles one zone's uplink down and up on a short
	// period until Heal — the lossy last-mile link of an edge site.
	FaultEdgeLinkFlap = inject.FaultEdgeLinkFlap
	// FaultZonePartition severs one zone's uplink: cross-zone traffic times
	// out and the zone's kubelets lose the control plane until Heal.
	FaultZonePartition = inject.FaultZonePartition
	// FaultNodeKill crashes every node of one zone at once — the correlated
	// infrastructure failure. Heal brings them back.
	FaultNodeKill = inject.FaultNodeKill
)

// Workloads (§IV-B), plus the governance workload of the admission campaign.
const (
	WorkloadDeploy   = workload.Deploy
	WorkloadScaleUp  = workload.ScaleUp
	WorkloadFailover = workload.Failover
	// WorkloadPolicy mixes compliant churn with policy-violating canary
	// creates; it is the default workload of admission-fault campaigns and is
	// not part of Workloads().
	WorkloadPolicy = workload.Policy
)

// Resource kinds of the simulated system.
const (
	KindPod        = spec.KindPod
	KindReplicaSet = spec.KindReplicaSet
	KindDeployment = spec.KindDeployment
	KindDaemonSet  = spec.KindDaemonSet
	KindService    = spec.KindService
	KindEndpoints  = spec.KindEndpoints
	KindNode       = spec.KindNode
	KindNamespace  = spec.KindNamespace
	KindConfigMap  = spec.KindConfigMap
	KindLease      = spec.KindLease
)

// Orchestrator-level failure categories (Table I(c)).
const (
	OFNone = classify.OFNone
	OFTim  = classify.OFTim
	OFLeR  = classify.OFLeR
	OFMoR  = classify.OFMoR
	OFNet  = classify.OFNet
	OFSta  = classify.OFSta
	OFOut  = classify.OFOut
)

// Client-level failure categories (Table II).
const (
	CFNSI = classify.CFNSI
	CFHRT = classify.CFHRT
	CFIA  = classify.CFIA
	CFSU  = classify.CFSU
)

// NewRunner returns a Runner with paper-default settings (100 golden runs
// per workload).
func NewRunner() *Runner { return campaign.NewRunner() }

// NewAggregate returns an empty result aggregate, for folding hand-rolled
// experiment sets into the same tables RunCampaign produces.
func NewAggregate() *Aggregate { return campaign.NewAggregate() }

// RunCampaign executes the full experimental method of §IV-C: golden runs,
// field recording, campaign generation, injections, the critical-field
// refinement round, and the propagation experiments.
func RunCampaign(cfg CampaignConfig) *CampaignOutput { return campaign.RunCampaign(cfg) }

// NewCluster builds a standalone simulated cluster (the substrate) for
// direct experimentation outside the campaign harness.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// NewDriver builds a workload driver for a cluster.
func NewDriver(c *Cluster, kind WorkloadKind) *Driver { return workload.NewDriver(c, kind) }

// NewInjector builds an injector for a cluster, attached to every apiserver
// replica (behind the field guard's store hook, when the guard is on) and to
// the platform its timed faults act on; arm it with Arm.
func NewInjector(c *Cluster) *Injector {
	j := inject.New(c.Loop)
	c.AttachInjector(j)
	return j
}

// ParseWorkload resolves a workload name (deploy, scale, failover, policy);
// any other name is an error.
func ParseWorkload(name string) (WorkloadKind, error) { return workload.ParseKind(name) }

// Workloads lists the workloads in paper order.
func Workloads() []WorkloadKind { return workload.Kinds() }

// ResourceKinds lists the resource kinds an injection can target.
func ResourceKinds() []ResourceKind { return spec.Kinds() }
