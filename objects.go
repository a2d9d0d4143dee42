package mutiny

import (
	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/guard"
	"github.com/mutiny-sim/mutiny/internal/netsim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// Resource model re-exports: the object types a user needs to read and write
// cluster state through an APIClient.
type (
	// Object is implemented by every resource type.
	Object = spec.Object
	// ObjectMeta carries identity and relationship metadata.
	ObjectMeta = spec.ObjectMeta
	// OwnerReference links a dependent object to its owner.
	OwnerReference = spec.OwnerReference
	// LabelSelector selects objects by labels.
	LabelSelector = spec.LabelSelector
	// PodTemplate is the pod blueprint in workload resources.
	PodTemplate = spec.PodTemplate

	// Pod is a set of containers scheduled onto one node.
	Pod = spec.Pod
	// ReplicaSet maintains a stable set of pod replicas.
	ReplicaSet = spec.ReplicaSet
	// Deployment manages ReplicaSets and rolling updates.
	Deployment = spec.Deployment
	// DaemonSet runs one pod per matching node.
	DaemonSet = spec.DaemonSet
	// Service exposes pods behind a virtual IP.
	Service = spec.Service
	// Endpoints lists a Service's ready backends.
	Endpoints = spec.Endpoints
	// Node is a cluster member.
	Node = spec.Node
	// Namespace partitions resources.
	Namespace = spec.Namespace
	// ConfigMap holds configuration data.
	ConfigMap = spec.ConfigMap
	// Lease implements leader election and heartbeats.
	Lease = spec.Lease

	// APIClient is a component-scoped handle on the API server.
	APIClient = apiserver.Client
	// FieldGuard is the §VI-B log+monitor+rollback mitigation.
	FieldGuard = guard.Guard
	// GuardChange is one journaled critical-field change.
	GuardChange = guard.Change
	// NetworkState is the simulated data plane (service VIPs, routes, DNS).
	NetworkState = netsim.State
	// RequestResult is the outcome of one client request.
	RequestResult = netsim.RequestResult
)

// CriticalFieldPath reports whether a field path belongs to the §V-C2
// critical set (dependency, identity, and networking fields).
func CriticalFieldPath(path string) bool { return spec.CriticalFieldPath(path) }

// CloneForWrite is the mutation gate of the copy-on-write object contract:
// APIClient reads (Get, List, watch events) return sealed, immutable
// references shared with the server's watch cache; pass one through
// CloneForWrite to obtain a private copy before modifying it for an Update.
// Objects the caller built itself pass through unchanged.
func CloneForWrite(o Object) Object { return spec.CloneForWrite(o) }

// Well-known names of the system plane.
const (
	// SystemNamespace hosts control-plane and networking workloads.
	SystemNamespace = spec.SystemNamespace
	// DefaultNamespace hosts application workloads.
	DefaultNamespace = spec.DefaultNamespace
	// NetConfigMapName is the network manager's ConfigMap (flannel-cfg).
	NetConfigMapName = netsim.NetConfigMapName
	// NetConfigKey is the overlay configuration key inside it.
	NetConfigKey = netsim.NetConfigKey
	// NetConfigValue is the correct overlay configuration value.
	NetConfigValue = netsim.NetConfigValue
)
