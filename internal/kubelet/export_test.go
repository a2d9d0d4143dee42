package kubelet

import (
	"fmt"
	"slices"
)

// TrackedUIDs returns the keys of the pods map, sorted.
func (k *Kubelet) TrackedUIDs() []string {
	uids := make([]string, 0, len(k.pods))
	for uid := range k.pods {
		uids = append(uids, uid)
	}
	slices.Sort(uids)
	return uids
}

// ClaimedUIDs returns the UIDs the kubelet's pod-watch scope has claimed,
// sorted.
func (k *Kubelet) ClaimedUIDs() []string {
	uids := slices.Clone(k.scope.Claims())
	slices.Sort(uids)
	return uids
}

// OrderMirrorsPods reports how podOrder differs from the runtimes in the pods
// map: nil when it holds exactly those, each once.
func (k *Kubelet) OrderMirrorsPods() error {
	if len(k.podOrder) != len(k.pods) {
		return fmt.Errorf("podOrder holds %d runtimes, pods %d", len(k.podOrder), len(k.pods))
	}
	inOrder := make(map[*podRuntime]bool, len(k.podOrder))
	for _, rt := range k.podOrder {
		inOrder[rt] = true
	}
	for uid, rt := range k.pods {
		if !inOrder[rt] {
			return fmt.Errorf("the runtime of pod %s (uid %s) is in pods but not in podOrder", rt.pod.Metadata.Name, uid)
		}
	}
	if len(inOrder) != len(k.podOrder) {
		return fmt.Errorf("podOrder holds a runtime twice")
	}
	return nil
}
