package kubelet

import (
	"sort"
	"time"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// This file implements kubelet snapshot/restore for the bootstrapped-cluster
// fork path. The kubelet is the one component whose runtime state is not
// recoverable from the store alone: which images are in the node cache,
// which pod IPs were handed out, and where each pod is in the startup
// pipeline live only in process memory. A fork restores them so adopted
// pods keep running seamlessly — without this, every forked kubelet would
// re-pull images and re-walk container startup, knocking the settled system
// pods out of readiness at the start of the injection window.

// Snapshot captures one kubelet's runtime state as immutable data.
type Snapshot struct {
	pulled []string
	ipSeq  int64
	pods   []podSnapshot
}

type podSnapshot struct {
	namespace    string
	name         string
	uid          string
	state        podState
	ip           string
	restartCount int64
	backoff      time.Duration
	startedAt    time.Duration
}

// Snapshot captures the kubelet's runtime state. Pods are recorded in pod-table
// order, ascending by UID, so two captures of the same state are identical.
func (k *Kubelet) Snapshot() Snapshot {
	snap := Snapshot{ipSeq: k.ipSeq, pulled: make([]string, 0, len(k.pulled))}
	for image := range k.pulled {
		snap.pulled = append(snap.pulled, image)
	}
	sort.Strings(snap.pulled)
	for _, rt := range k.pods {
		snap.pods = append(snap.pods, podSnapshot{
			namespace:    rt.pod.Metadata.Namespace,
			name:         rt.pod.Metadata.Name,
			uid:          rt.uid,
			state:        rt.state,
			ip:           rt.ip,
			restartCount: rt.restartCount,
			backoff:      rt.backoff,
			startedAt:    rt.startedAt,
		})
	}
	return snap
}

// RestoreSnapshot adopts the snapshot's pods into a kubelet that is freshly
// built or Reset. It must run after the API server's cache has been restored
// (pod specs are re-read through the client, like a kubelet reconciling
// against the control plane after a restart) and before Start, so the pod
// watch never sees the adopted pods as new arrivals. Running pods resume in
// place; pods that were mid-pipeline re-enter the startup pipeline, drawing
// fresh (per-fork) delays.
func (k *Kubelet) RestoreSnapshot(snap Snapshot) {
	k.ipSeq = snap.ipSeq
	for _, image := range snap.pulled {
		k.pulled[image] = true
	}
	if cap(k.restored) < len(snap.pods) {
		k.restored = make([]podRuntime, len(snap.pods))
	}
	k.restored = k.restored[:len(snap.pods)]
	for i, ps := range snap.pods {
		obj, err := k.client.Get(spec.KindPod, ps.namespace, ps.name)
		if err != nil {
			continue // deleted between capture and restore: nothing to adopt
		}
		pod := obj.(*spec.Pod)
		if pod.Metadata.UID != ps.uid {
			continue
		}
		rt := &k.restored[i]
		*rt = podRuntime{
			pod:          pod,
			state:        ps.state,
			ip:           ps.ip,
			restartCount: ps.restartCount,
			backoff:      ps.backoff,
			startedAt:    ps.startedAt,
		}
		k.trackPod(rt)
		switch ps.state {
		case stateRunning, stateFailed:
			// Nothing pending: the pod keeps serving (or stays failed).
		default:
			// Mid-pipeline (pulling, creating, starting, crash-looping):
			// resume the pipeline from the top; restart count and back-off
			// carry over, so a crash loop keeps escalating.
			rt.state = stateWaiting
			k.startPod(rt)
		}
	}
}
