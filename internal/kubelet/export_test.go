package kubelet

import "slices"

// TrackedUIDs returns the UIDs the pod table holds runtimes under, in table
// order.
func (k *Kubelet) TrackedUIDs() []string {
	uids := make([]string, len(k.pods))
	for i, rt := range k.pods {
		uids[i] = rt.uid
	}
	return uids
}

// ClaimedUIDs returns the UIDs the kubelet's pod-watch scope has claimed,
// sorted.
func (k *Kubelet) ClaimedUIDs() []string {
	uids := slices.Clone(k.scope.Claims())
	slices.Sort(uids)
	return uids
}

// SnapshotUIDs returns the pod UIDs Snapshot captures, in capture order.
func (k *Kubelet) SnapshotUIDs() []string {
	var uids []string
	for _, ps := range k.Snapshot().pods {
		uids = append(uids, ps.uid)
	}
	return uids
}
