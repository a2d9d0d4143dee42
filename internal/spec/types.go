// Package spec defines the resource model of the simulated orchestration
// system: the object kinds, their metadata, and the relationship mechanisms
// (labels, selectors, owner references) whose corruption the paper identifies
// as the dominant cause of critical failures (finding F2).
//
// The field inventory deliberately mirrors Kubernetes: identity fields (name,
// namespace, uid), dependency-tracking fields (labels, label selectors,
// ownerReferences, targetRef), replica counts, networking fields (IPs,
// ports, protocols), and image/command specifications — the 34-field critical
// set of §V-C2 all exist here under the same names.
package spec

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind names a resource type.
type Kind string

// All resource kinds handled by the API server.
const (
	KindPod        Kind = "Pod"
	KindReplicaSet Kind = "ReplicaSet"
	KindDeployment Kind = "Deployment"
	KindDaemonSet  Kind = "DaemonSet"
	KindService    Kind = "Service"
	KindEndpoints  Kind = "Endpoints"
	KindNode       Kind = "Node"
	KindNamespace  Kind = "Namespace"
	KindConfigMap  Kind = "ConfigMap"
	KindLease      Kind = "Lease"
)

// ClusterScoped reports whether objects of the kind live outside any
// namespace: their keys carry an empty one.
func (k Kind) ClusterScoped() bool { return k == KindNode || k == KindNamespace }

// Kinds lists every kind in deterministic order.
func Kinds() []Kind {
	return []Kind{
		KindPod, KindReplicaSet, KindDeployment, KindDaemonSet, KindService,
		KindEndpoints, KindNode, KindNamespace, KindConfigMap, KindLease,
	}
}

// Object is implemented by every resource type.
type Object interface {
	// Meta returns the object's metadata for in-place mutation.
	Meta() *ObjectMeta
	// Kind returns the object's resource kind.
	Kind() Kind
	// Clone returns a deep copy.
	Clone() Object
}

// New returns a zero value of the given kind, or nil for unknown kinds.
func New(kind Kind) Object {
	switch kind {
	case KindPod:
		return &Pod{}
	case KindReplicaSet:
		return &ReplicaSet{}
	case KindDeployment:
		return &Deployment{}
	case KindDaemonSet:
		return &DaemonSet{}
	case KindService:
		return &Service{}
	case KindEndpoints:
		return &Endpoints{}
	case KindNode:
		return &Node{}
	case KindNamespace:
		return &Namespace{}
	case KindConfigMap:
		return &ConfigMap{}
	case KindLease:
		return &Lease{}
	default:
		return nil
	}
}

// ObjectMeta carries identity and relationship metadata. Labels and
// ownerReferences are the flexible dependency mechanisms whose corruption
// drives the paper's uncontrolled-replication failures.
type ObjectMeta struct {
	Name            string            `pb:"1"`
	Namespace       string            `pb:"2"`
	UID             string            `pb:"3,uid"`
	ResourceVersion int64             `pb:"4"`
	Labels          map[string]string `pb:"5"`
	Annotations     map[string]string `pb:"6"`
	OwnerReferences []OwnerReference  `pb:"7"`
	CreatedMillis   int64             `pb:"8,creationTimestamp"`
	Generation      int64             `pb:"9"`
	ManagedBy       string            `pb:"10,managedBy"`

	// sealed is the copy-on-write bit (see seal.go): set once the object
	// enters a shared read path (watch cache, dispatch, snapshots). It is
	// not part of the wire format and never survives Clone or decode.
	sealed bool
	// nsName caches Namespace+"/"+Name, computed once at Seal time. Sealed
	// objects are immutable, so the cache can never go stale; consumers that
	// key maps by object identity (controller work queues, the scheduler's
	// pending set, netsim's per-pod accounting) would otherwise re-concatenate
	// the same two strings millions of times per campaign. Like sealed, it is
	// not part of the wire format and never survives Clone or decode.
	nsName string
}

// OwnerReference links a dependent object to its owner; the garbage
// collector deletes dependents whose owner (matched by UID) is gone.
type OwnerReference struct {
	Kind       string `pb:"1"`
	Name       string `pb:"2"`
	UID        string `pb:"3,uid"`
	Controller bool   `pb:"4"`
}

// ControllerOf returns the controlling owner reference, if any.
func (m *ObjectMeta) ControllerOf() *OwnerReference {
	for i := range m.OwnerReferences {
		if m.OwnerReferences[i].Controller {
			return &m.OwnerReferences[i]
		}
	}
	return nil
}

// NamespacedName returns "namespace/name". For sealed objects the string is
// computed once (at Seal time) and served from a cache thereafter.
func (m *ObjectMeta) NamespacedName() string {
	if m.nsName != "" {
		return m.nsName
	}
	return m.Namespace + "/" + m.Name
}

// --- Pod --------------------------------------------------------------------

// Pod is a set of containers scheduled onto one node.
type Pod struct {
	Metadata ObjectMeta `pb:"1,metadata"`
	Spec     PodSpec    `pb:"2"`
	Status   PodStatus  `pb:"3"`
}

// PodSpec is the desired state of a pod.
type PodSpec struct {
	NodeName      string            `pb:"1"`
	Containers    []Container       `pb:"2"`
	Priority      int64             `pb:"3"`
	Tolerations   []Toleration      `pb:"4"`
	NodeSelector  map[string]string `pb:"5"`
	RestartPolicy string            `pb:"6"`
	VolumeSeed    string            `pb:"7"`
}

// Container describes one container: image, command and resource envelope.
type Container struct {
	Name             string   `pb:"1"`
	Image            string   `pb:"2"`
	Command          []string `pb:"3"`
	RequestsMilliCPU int64    `pb:"4"`
	RequestsMemMB    int64    `pb:"5"`
	LimitsMilliCPU   int64    `pb:"6"`
	LimitsMemMB      int64    `pb:"7"`
	Port             int64    `pb:"8"`
}

// Toleration lets a pod remain on (or be scheduled to) tainted nodes.
type Toleration struct {
	Key            string `pb:"1"`
	Value          string `pb:"2"`
	Effect         string `pb:"3"`
	TolerateAll    bool   `pb:"4"`
	TolerationSecs int64  `pb:"5"`
}

// PodStatus is the observed state of a pod, written by the kubelet.
type PodStatus struct {
	Phase         string `pb:"1"`
	PodIP         string `pb:"2,podIP"`
	Ready         bool   `pb:"3"`
	RestartCount  int64  `pb:"4"`
	Reason        string `pb:"5"`
	StartedMillis int64  `pb:"6"`
}

// Pod phases.
const (
	PodPending   = "Pending"
	PodRunning   = "Running"
	PodSucceeded = "Succeeded"
	PodFailed    = "Failed"
)

// Meta implements Object.
func (p *Pod) Meta() *ObjectMeta { return &p.Metadata }

// Kind implements Object.
func (p *Pod) Kind() Kind { return KindPod }

// RequestsMilliCPU sums CPU requests across containers.
func (p *Pod) RequestsMilliCPU() int64 {
	var total int64
	for i := range p.Spec.Containers {
		total += p.Spec.Containers[i].RequestsMilliCPU
	}
	return total
}

// RequestsMemMB sums memory requests across containers.
func (p *Pod) RequestsMemMB() int64 {
	var total int64
	for i := range p.Spec.Containers {
		total += p.Spec.Containers[i].RequestsMemMB
	}
	return total
}

// Active reports whether the pod still holds (or will hold) node resources.
func (p *Pod) Active() bool {
	return p.Status.Phase != PodSucceeded && p.Status.Phase != PodFailed
}

// Tolerates reports whether the pod tolerates the given taint.
func (p *Pod) Tolerates(t Taint) bool {
	for _, tol := range p.Spec.Tolerations {
		if tol.TolerateAll {
			return true
		}
		if tol.Key == t.Key && (tol.Effect == "" || tol.Effect == t.Effect) &&
			(tol.Value == "" || tol.Value == t.Value) {
			return true
		}
	}
	return false
}

// --- workload controllers -----------------------------------------------------

// PodTemplate is the pod blueprint embedded in workload resources. Labels
// must match the owning controller's selector — when corruption breaks that
// invariant past validation, every pod the controller creates fails to match
// its selector and reconciliation spawns pods forever.
type PodTemplate struct {
	Labels map[string]string `pb:"1"`
	Spec   PodSpec           `pb:"2"`
}

// LabelSelector selects objects whose labels include all of MatchLabels.
type LabelSelector struct {
	MatchLabels map[string]string `pb:"1"`
}

// Matches reports whether the selector selects the given label set. An empty
// selector matches nothing (mirroring controller semantics, where an empty
// selector would otherwise select every pod in the namespace).
func (s LabelSelector) Matches(labels map[string]string) bool {
	if len(s.MatchLabels) == 0 {
		return false
	}
	for k, v := range s.MatchLabels {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// Empty reports whether the selector has no terms.
func (s LabelSelector) Empty() bool { return len(s.MatchLabels) == 0 }

// LabelPair is one term of a LabelSelector.
type LabelPair struct{ Key, Value string }

// AppendPairs appends the selector's terms to dst, in no particular order: a
// flat copy for a caller about to match one selector against many label sets,
// so that the selector map is walked once, not once per set.
func (s LabelSelector) AppendPairs(dst []LabelPair) []LabelPair {
	for k, v := range s.MatchLabels {
		dst = append(dst, LabelPair{k, v})
	}
	return dst
}

// PairsMatch reports what Matches would for the selector the pairs were taken
// from: no pairs match nothing, and an absent label equals an empty value.
func PairsMatch(pairs []LabelPair, labels map[string]string) bool {
	for _, p := range pairs {
		if labels[p.Key] != p.Value {
			return false
		}
	}
	return len(pairs) > 0
}

// TemplateOf returns pointers to the pod selector and pod template of a
// workload kind (ReplicaSet, Deployment, DaemonSet) — the dependency fields
// that tie a controller to the pods it creates — and nils for any other kind.
func TemplateOf(o Object) (*LabelSelector, *PodTemplate) {
	switch t := o.(type) {
	case *ReplicaSet:
		return &t.Spec.Selector, &t.Spec.Template
	case *Deployment:
		return &t.Spec.Selector, &t.Spec.Template
	case *DaemonSet:
		return &t.Spec.Selector, &t.Spec.Template
	}
	return nil, nil
}

// ReplicaSet maintains a stable set of pod replicas.
type ReplicaSet struct {
	Metadata ObjectMeta       `pb:"1,metadata"`
	Spec     ReplicaSetSpec   `pb:"2"`
	Status   ReplicaSetStatus `pb:"3"`
}

// ReplicaSetSpec is the desired state of a ReplicaSet.
type ReplicaSetSpec struct {
	Replicas int64         `pb:"1"`
	Selector LabelSelector `pb:"2"`
	Template PodTemplate   `pb:"3"`
}

// ReplicaSetStatus is the observed state of a ReplicaSet.
type ReplicaSetStatus struct {
	Replicas      int64 `pb:"1"`
	ReadyReplicas int64 `pb:"2"`
}

// Meta implements Object.
func (r *ReplicaSet) Meta() *ObjectMeta { return &r.Metadata }

// Kind implements Object.
func (r *ReplicaSet) Kind() Kind { return KindReplicaSet }

// Deployment manages ReplicaSets and rolling updates.
type Deployment struct {
	Metadata ObjectMeta       `pb:"1,metadata"`
	Spec     DeploymentSpec   `pb:"2"`
	Status   DeploymentStatus `pb:"3"`
}

// DeploymentSpec is the desired state of a Deployment.
type DeploymentSpec struct {
	Replicas       int64         `pb:"1"`
	Selector       LabelSelector `pb:"2"`
	Template       PodTemplate   `pb:"3"`
	MaxUnavailable int64         `pb:"4"`
	MaxSurge       int64         `pb:"5"`
}

// DeploymentStatus is the observed state of a Deployment.
type DeploymentStatus struct {
	Replicas        int64 `pb:"1"`
	ReadyReplicas   int64 `pb:"2"`
	UpdatedReplicas int64 `pb:"3"`
}

// Meta implements Object.
func (d *Deployment) Meta() *ObjectMeta { return &d.Metadata }

// Kind implements Object.
func (d *Deployment) Kind() Kind { return KindDeployment }

// DaemonSet runs one pod per matching node (network manager, DNS are
// deployed this way; their pods carry system-critical priority).
type DaemonSet struct {
	Metadata ObjectMeta      `pb:"1,metadata"`
	Spec     DaemonSetSpec   `pb:"2"`
	Status   DaemonSetStatus `pb:"3"`
}

// DaemonSetSpec is the desired state of a DaemonSet.
type DaemonSetSpec struct {
	Selector LabelSelector `pb:"1"`
	Template PodTemplate   `pb:"2"`
}

// DaemonSetStatus is the observed state of a DaemonSet.
type DaemonSetStatus struct {
	DesiredNumber int64 `pb:"1"`
	CurrentNumber int64 `pb:"2"`
	NumberReady   int64 `pb:"3"`
}

// Meta implements Object.
func (d *DaemonSet) Meta() *ObjectMeta { return &d.Metadata }

// Kind implements Object.
func (d *DaemonSet) Kind() Kind { return KindDaemonSet }

// --- networking ---------------------------------------------------------------

// Service exposes a set of pods (chosen by label selector) behind one
// virtual IP.
type Service struct {
	Metadata ObjectMeta  `pb:"1,metadata"`
	Spec     ServiceSpec `pb:"2"`
}

// ServiceSpec is the desired state of a Service.
type ServiceSpec struct {
	Selector  map[string]string `pb:"1"`
	ClusterIP string            `pb:"2,clusterIP"`
	Ports     []ServicePort     `pb:"3"`
}

// ServicePort maps a service port to a target container port.
type ServicePort struct {
	Port       int64  `pb:"1"`
	TargetPort int64  `pb:"2"`
	Protocol   string `pb:"3"`
}

// Meta implements Object.
func (s *Service) Meta() *ObjectMeta { return &s.Metadata }

// Kind implements Object.
func (s *Service) Kind() Kind { return KindService }

// Endpoints lists the ready backends of a Service.
type Endpoints struct {
	Metadata ObjectMeta       `pb:"1,metadata"`
	Subsets  []EndpointSubset `pb:"2"`
}

// EndpointSubset groups addresses sharing a port list.
type EndpointSubset struct {
	Addresses []EndpointAddress `pb:"1"`
	Ports     []int64           `pb:"2"`
}

// EndpointAddress is one backend address with a reference to its pod.
type EndpointAddress struct {
	IP        string    `pb:"1,ip"`
	NodeName  string    `pb:"2"`
	TargetRef TargetRef `pb:"3"`
}

// TargetRef points an endpoint address back at the pod providing it.
type TargetRef struct {
	Kind string `pb:"1"`
	Name string `pb:"2"`
	UID  string `pb:"3,uid"`
}

// Meta implements Object.
func (e *Endpoints) Meta() *ObjectMeta { return &e.Metadata }

// Kind implements Object.
func (e *Endpoints) Kind() Kind { return KindEndpoints }

// Count returns the number of endpoint addresses.
func (e *Endpoints) Count() int {
	n := 0
	for i := range e.Subsets {
		n += len(e.Subsets[i].Addresses)
	}
	return n
}

// --- cluster ------------------------------------------------------------------

// Node is a member of the cluster.
type Node struct {
	Metadata ObjectMeta `pb:"1,metadata"`
	Spec     NodeSpec   `pb:"2"`
	Status   NodeStatus `pb:"3"`
}

// NodeSpec is the desired state of a Node.
type NodeSpec struct {
	PodCIDR       string  `pb:"1,podCIDR"`
	Taints        []Taint `pb:"2"`
	Unschedulable bool    `pb:"3"`
}

// Taint repels pods that do not tolerate it.
type Taint struct {
	Key    string `pb:"1"`
	Value  string `pb:"2"`
	Effect string `pb:"3"`
}

// Taint effects.
const (
	TaintNoSchedule = "NoSchedule"
	TaintNoExecute  = "NoExecute"
)

// NodeStatus is the observed state of a Node, refreshed by its kubelet's
// heartbeats.
type NodeStatus struct {
	CapacityMilliCPU    int64  `pb:"1"`
	CapacityMemMB       int64  `pb:"2"`
	AllocatableMilliCPU int64  `pb:"3"`
	AllocatableMemMB    int64  `pb:"4"`
	Ready               bool   `pb:"5"`
	LastHeartbeatMillis int64  `pb:"6"`
	Address             string `pb:"7"`
}

// Meta implements Object.
func (n *Node) Meta() *ObjectMeta { return &n.Metadata }

// Kind implements Object.
func (n *Node) Kind() Kind { return KindNode }

// Namespace partitions resources.
type Namespace struct {
	Metadata ObjectMeta `pb:"1,metadata"`
	Phase    string     `pb:"2"`
}

// Meta implements Object.
func (n *Namespace) Meta() *ObjectMeta { return &n.Metadata }

// Kind implements Object.
func (n *Namespace) Kind() Kind { return KindNamespace }

// ConfigMap holds configuration data (the network manager reads its overlay
// configuration from one, mirroring flannel).
type ConfigMap struct {
	Metadata ObjectMeta        `pb:"1,metadata"`
	Data     map[string]string `pb:"2"`
}

// Meta implements Object.
func (c *ConfigMap) Meta() *ObjectMeta { return &c.Metadata }

// Kind implements Object.
func (c *ConfigMap) Kind() Kind { return KindConfigMap }

// Lease implements leader election and component heartbeats.
type Lease struct {
	Metadata ObjectMeta `pb:"1,metadata"`
	Spec     LeaseSpec  `pb:"2"`
}

// LeaseSpec carries the holder identity and renewal state.
type LeaseSpec struct {
	HolderIdentity string `pb:"1"`
	DurationSecs   int64  `pb:"2"`
	RenewMillis    int64  `pb:"3"`
}

// Meta implements Object.
func (l *Lease) Meta() *ObjectMeta { return &l.Metadata }

// Kind implements Object.
func (l *Lease) Kind() Kind { return KindLease }

// --- helpers ------------------------------------------------------------------

// Key returns the canonical storage key for an object of the given identity,
// mirroring etcd's /registry layout. Keys are interned (internkey.go): the
// same identity returns the same string instance, alloc-free after first
// sighting.
func Key(kind Kind, namespace, name string) string {
	return internKey(kind, namespace, name)
}

// FormatUID builds a deterministic UID from a counter; real clusters use
// UUIDs, but deterministic IDs keep experiments bit-reproducible.
func FormatUID(n int64) string {
	return "uid-" + strconv.FormatInt(n, 10)
}

// SystemNamespace hosts the control-plane and networking pods.
const SystemNamespace = "kube-system"

// DefaultNamespace hosts application workloads.
const DefaultNamespace = "default"

// Well-known label keys.
const (
	LabelApp      = "app"
	LabelPodHash  = "pod-template-hash"
	LabelNodeRole = "node-role"
	// LabelZone carries a node's topology zone in zoned (cloud-edge)
	// clusters, following the upstream topology.kubernetes.io convention.
	LabelZone = "topology.kubernetes.io/zone"
)

// System-critical pod priority (mirrors system-node-critical): these pods
// preempt application pods when resources run out, which is how a corrupted
// DaemonSet label escalates a Stall into a cluster Outage in the paper.
const SystemCriticalPriority = 2_000_000_000

// Validate-time bounds.
const (
	MinPort = 1
	MaxPort = 65535
)

func (t Taint) String() string {
	return fmt.Sprintf("%s=%s:%s", t.Key, t.Value, t.Effect)
}

// CriticalFieldPath reports whether a field path belongs to the critical set
// identified by the paper's §V-C2 analysis: the fields managing dependency
// relationships (labels, selectors, owner references, targetRef, managedBy),
// the identity fields appearing in resource URLs (name, namespace, uid, plus
// nodeName bindings), and the networking fields (addresses, ports, CIDRs).
// These are the fields whose corruption caused Sta/Out/SU failures, and the
// ones the paper proposes to guard with logging, rollback, and redundancy
// codes (§VI-B) — "the critical fields are < 10% of total".
func CriticalFieldPath(path string) bool {
	lower := strings.ToLower(path)
	switch {
	case strings.Contains(lower, "label"),
		strings.Contains(lower, "selector"),
		strings.Contains(lower, "ownerreferences"),
		strings.Contains(lower, "targetref"),
		strings.Contains(lower, "managedby"):
		return true
	case strings.HasSuffix(lower, ".name"),
		strings.HasSuffix(lower, ".namespace"),
		strings.HasSuffix(lower, ".uid"),
		strings.Contains(lower, "nodename"):
		return true
	case strings.Contains(lower, "clusterip"),
		strings.Contains(lower, "podcidr"),
		strings.Contains(lower, "podip"),
		strings.Contains(lower, "port"),
		strings.HasSuffix(lower, ".ip"):
		return true
	default:
		return false
	}
}
