package spec

// Status-subresource clones.
//
// Status updates are the hottest write class of a campaign (kubelet pod and
// node statuses, controller observed-state writes), and they mutate nothing
// but the Status struct — which is a pointer-free value on every kind that
// has one. A full CloneForWrite deep-copies metadata maps, owner references
// and the spec just to overwrite a handful of status integers; CloneForStatus
// instead copies the struct shallowly, aliasing the sealed source's metadata
// and spec (immutable, so sharing is safe) and clearing only the seal state.
// The clone's Status is a value copy, private by construction.
//
// The contract: callers may mutate ONLY the Status field of the result (and
// must not touch Metadata or Spec, whose maps and slices are shared with the
// sealed source). The apiserver's status-merge path and the kubelet's and
// controllers' status writers all satisfy this by inspection — they assign
// status fields and hand the object to UpdateStatus.

// statusMeta shallow-copies sealed metadata for a status clone: the maps and
// owner references stay aliased (immutable on the sealed source), the seal
// state is cleared, and nsName is kept — a status write cannot rename, so the
// cached identity stays valid for the re-seal.
func statusMeta(m ObjectMeta) ObjectMeta {
	m.sealed = false
	return m
}

// CloneForStatus returns a private copy of o for a status-only write: cheap
// shallow copies for the kinds that carry a status subresource, a full
// CloneForWrite otherwise. Unsealed objects pass through unchanged, exactly
// like CloneForWrite.
func CloneForStatus(o Object) Object {
	if !o.Meta().sealed {
		return o
	}
	switch t := o.(type) {
	case *Pod:
		out := *t
		out.Metadata = statusMeta(t.Metadata)
		return &out
	case *ReplicaSet:
		out := *t
		out.Metadata = statusMeta(t.Metadata)
		return &out
	case *Deployment:
		out := *t
		out.Metadata = statusMeta(t.Metadata)
		return &out
	case *DaemonSet:
		out := *t
		out.Metadata = statusMeta(t.Metadata)
		return &out
	case *Node:
		out := *t
		out.Metadata = statusMeta(t.Metadata)
		return &out
	default:
		return o.Clone()
	}
}

// CloneForStatusAs is CloneForStatus preserving the concrete type, so call
// sites skip the interface re-assertion.
func CloneForStatusAs[T Object](o T) T {
	return CloneForStatus(o).(T)
}
