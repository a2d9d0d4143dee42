package spec

// Status-subresource clones.
//
// Status updates are the hottest write class of a campaign (kubelet pod and
// node statuses, controller observed-state writes), and they mutate nothing
// but the Status struct — which is a pointer-free value on every kind that
// has one. A full CloneForWrite deep-copies metadata maps, owner references
// and the spec just to overwrite a handful of status integers; a status clone
// instead copies the struct shallowly, aliasing the sealed source's metadata
// and spec (immutable, so sharing is safe) and clearing only the seal bit. The
// cached namespaced name is kept: a status write cannot rename. The clone's
// Status is a value copy, private by construction.
//
// The contract: callers may mutate ONLY the Status field of the result (and
// must not touch Metadata or Spec, whose maps and slices are shared with the
// sealed source). The apiserver's status-merge path and the kubelet's and
// controllers' status writers all satisfy this by inspection — they assign
// status fields and hand the object to UpdateStatus.

// StatusOf returns a pointer to o's status section, nil for a kind without
// one — a kind without a status subresource, whose encoding has no top-level
// status record.
func StatusOf(o Object) any {
	switch t := o.(type) {
	case *Pod:
		return &t.Status
	case *ReplicaSet:
		return &t.Status
	case *Deployment:
		return &t.Status
	case *DaemonSet:
		return &t.Status
	case *Node:
		return &t.Status
	}
	return nil
}

// WithStatus returns a status clone of cur carrying src's status, nil for a
// kind without one. src must be of cur's kind.
func WithStatus(cur, src Object) Object {
	switch t := cur.(type) {
	case *Pod:
		out := *t
		out.Metadata.sealed, out.Status = false, src.(*Pod).Status
		return &out
	case *ReplicaSet:
		out := *t
		out.Metadata.sealed, out.Status = false, src.(*ReplicaSet).Status
		return &out
	case *Deployment:
		out := *t
		out.Metadata.sealed, out.Status = false, src.(*Deployment).Status
		return &out
	case *DaemonSet:
		out := *t
		out.Metadata.sealed, out.Status = false, src.(*DaemonSet).Status
		return &out
	case *Node:
		out := *t
		out.Metadata.sealed, out.Status = false, src.(*Node).Status
		return &out
	}
	return nil
}

// CloneForStatus returns a private copy of o for a status-only write: a
// status clone for the kinds that carry a status subresource, a full Clone
// otherwise. Unsealed objects pass through unchanged, exactly like
// CloneForWrite.
func CloneForStatus(o Object) Object {
	if !o.Meta().sealed {
		return o
	}
	if out := WithStatus(o, o); out != nil {
		return out
	}
	return o.Clone()
}

// CloneForStatusAs is CloneForStatus preserving the concrete type, so call
// sites skip the interface re-assertion.
func CloneForStatusAs[T Object](o T) T {
	return CloneForStatus(o).(T)
}
