// Package kubelet implements the per-node agent: heartbeats, pod admission,
// container lifecycle with crash-loop back-off (the §II-D circuit breaker),
// pod IP allocation from the node CIDR, and node-pressure eviction.
//
// The kubelet is also a recovery path the paper observes: it periodically
// rewrites pod status (including PodIP) from its own runtime view, so
// corruption of status fields in the store is overwritten by correct values
// — one of the reasons ~70% of injections have no effect.
package kubelet

import (
	"cmp"
	"fmt"
	"maps"
	"net"
	"slices"
	"strings"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

const (
	heartbeatInterval = 10 * time.Second
	imagePullRetry    = 20 * time.Second
	statusSyncPeriod  = 10 * time.Second
	backoffInitial    = 10 * time.Second
	backoffMax        = 5 * time.Minute
	volumeReadDelay   = 500 * time.Millisecond
	defaultStartupMS  = 1000
	pullDelayMin      = 500 * time.Millisecond
	pullDelaySpread   = 1500 * time.Millisecond
)

// runnableCommands is the set of entrypoints the simulated runtime knows how
// to execute; anything else fails the container (RunContainerError), which
// after corruption of a command field yields a crash loop.
var runnableCommands = map[string]bool{
	"serve": true, "flanneld": true, "coredns": true, "pause": true, "sleep": true,
}

// imageRegistry is the registry prefix that image pulls succeed from.
const imageRegistry = "registry.local/"

// Config parameterizes a kubelet.
type Config struct {
	NodeName string
	// CapacityMilliCPU and CapacityMemMB describe the node size (the paper's
	// worker VMs are 8 CPU / 4 GB).
	CapacityMilliCPU int64
	CapacityMemMB    int64
	PodCIDR          string
	Labels           map[string]string
}

// Kubelet manages the pods bound to one node.
type Kubelet struct {
	loop   *sim.Loop
	client *apiserver.Client
	cfg    Config

	// pods is the kubelet's pod table: one runtime per tracked pod, ascending
	// by the UID it was tracked under. Walking it is deterministic, which the
	// write paths (status sync, eviction choice) need for bit-reproducibility.
	pods []*podRuntime
	// scope is the kubelet's interest in pod events, as registered with its
	// pod watch: its node's name and the UIDs of its pods, claimed and
	// released exactly where the table gains and loses them. onPodEvent acts
	// on nothing else, so nothing else is delivered.
	scope  apiserver.PodScope
	pulled map[string]bool // images already present on this node
	ipSeq  int64
	// Down simulates a node crash: no heartbeats, no pod management.
	down bool
	// node is the kubelet's private status-write base for its Node object,
	// kept current by the committed-revision feedback on UpdateStatus. It
	// spares the heartbeat a read + clone per period — at 500 nodes those
	// were the single largest per-experiment cost — and is dropped on any
	// write failure, falling back to a fresh read (a taint or cordon bumps
	// the revision and surfaces here as one conflict).
	node *spec.Node

	// The callbacks Start hands to the watch and the two periodic timers,
	// bound once in New: a started kubelet costs its registrations, not three
	// closures on top — 1,500 per experiment at 500 nodes.
	onPodEventFn      func(apiserver.WatchEvent)
	heartbeatFn       func()
	syncAllStatusesFn func()
	// restored backs the runtimes of the pods RestoreSnapshot adopts: one
	// array per restore instead of one allocation per pod, reused when a
	// Reset kubelet is restored again.
	restored []podRuntime
}

type podState int

const (
	stateWaiting podState = iota + 1
	statePulling
	stateCreating
	stateStarting
	stateRunning
	stateCrashLoop
	stateFailed
)

type podRuntime struct {
	// uid is the UID the pod was admitted or adopted under, the runtime's key
	// in the pod table. pod is the kubelet's latest view of the pod, which a
	// status write replaces with what the store holds under the pod's name —
	// after a metadata.uid corruption, under another UID.
	uid          string
	pod          *spec.Pod
	state        podState
	ip           string
	restartCount int64
	backoff      time.Duration
	timer        sim.Timer
	startedAt    time.Duration
}

// New builds a kubelet and registers (or refreshes) its Node object.
func New(loop *sim.Loop, eps *apiserver.Endpoints, cfg Config) *Kubelet {
	k := &Kubelet{
		loop:   loop,
		client: eps.ClientFor("kubelet-" + cfg.NodeName),
		cfg:    cfg,
		scope:  apiserver.PodScope{Node: cfg.NodeName},
		pulled: make(map[string]bool),
	}
	k.onPodEventFn, k.heartbeatFn, k.syncAllStatusesFn = k.onPodEvent, k.heartbeat, k.syncAllStatuses
	return k
}

// Reset returns the kubelet to the state New left it in, keeping the memory
// of its tables: no pods, empty image cache, IP allocator at zero, up, not
// started. Nothing is cancelled — the loop its timers ran on and the server
// its watch was registered with have been reset and no longer know them.
func (k *Kubelet) Reset() {
	clear(k.pods)
	k.pods = k.pods[:0]
	k.scope.Reset()
	clear(k.restored)
	clear(k.pulled)
	k.ipSeq = 0
	k.down = false
	k.node = nil
}

// Start registers the node and begins heartbeating and managing pods. No
// immediate heartbeat is issued: registration itself carries a fresh status,
// and on a restart (forked snapshot) the existing Node's heartbeat is at most
// one heartbeatInterval old — the periodic timer refreshes it well inside the
// lifecycle controller's grace period either way. At 500 nodes the redundant
// boot-time status write was one of the two largest per-fork costs.
func (k *Kubelet) Start() {
	k.registerNode()
	k.client.WatchPods(&k.scope, k.onPodEventFn)
	k.loop.Every(heartbeatInterval, k.heartbeatFn)
	k.loop.Every(statusSyncPeriod, k.syncAllStatusesFn)
}

// SetDown simulates a node crash or recovery: while down the kubelet stops
// heartbeating (the node lifecycle controller will mark the node NotReady
// and evict) and all its pods stop serving.
func (k *Kubelet) SetDown(down bool) { k.down = down }

// IsDown reports whether the node is crashed.
func (k *Kubelet) IsDown() bool { return k.down }

// PodIP returns the runtime-assigned IP of a pod UID, if running here.
func (k *Kubelet) PodIP(uid string) (string, bool) {
	rt := k.find(uid)
	if rt == nil || rt.state != stateRunning {
		return "", false
	}
	return rt.ip, true
}

func (k *Kubelet) registerNode() {
	// On a restart (forked snapshot) the Node object already exists with its
	// bootstrap Address, capacities, and a near-fresh heartbeat; probing with
	// a read instead of a doomed Create skips building, encoding, and
	// rejecting 500 Node objects per fork.
	if _, err := k.client.Get(spec.KindNode, "", k.cfg.NodeName); err == nil {
		return
	}
	node := &spec.Node{
		// The labels are copied: the node is handed over, and a mutating
		// admission hook writes into its Labels in place.
		Metadata: spec.ObjectMeta{Name: k.cfg.NodeName, Labels: maps.Clone(k.cfg.Labels)},
		Spec:     spec.NodeSpec{PodCIDR: k.cfg.PodCIDR},
		Status:   spec.NodeStatus{Address: fmt.Sprintf("192.168.0.%d", 1+len(k.cfg.NodeName)%250)},
	}
	k.report(&node.Status)
	_ = k.client.Create(node)
}

// report stamps what every node status write says: ready, heartbeat now,
// the configured capacity, and 9/10 of it allocatable.
func (k *Kubelet) report(st *spec.NodeStatus) {
	st.Ready = true
	st.LastHeartbeatMillis = k.loop.Time().UnixMilli()
	st.CapacityMilliCPU = k.cfg.CapacityMilliCPU
	st.CapacityMemMB = k.cfg.CapacityMemMB
	st.AllocatableMilliCPU = k.cfg.CapacityMilliCPU * 9 / 10
	st.AllocatableMemMB = k.cfg.CapacityMemMB * 9 / 10
}

// heartbeat refreshes node status. An overloaded node (actual usage above
// capacity) stops heartbeating: overload manifests as an unhealthy node,
// the F3 path from misconfiguration to resource exhaustion.
func (k *Kubelet) heartbeat() {
	if k.down {
		return
	}
	if k.overloaded() {
		return // too starved to report in time
	}
	// Two attempts: the cached base, then — after a conflict or a dropped
	// cache — a fresh read. More than one conflict in a single simulated
	// instant cannot happen (writes are serialized through the loop).
	for attempt := 0; attempt < 2; attempt++ {
		if k.node == nil {
			obj, err := k.client.Get(spec.KindNode, "", k.cfg.NodeName)
			if err != nil {
				return
			}
			k.node = spec.CloneForStatusAs(obj.(*spec.Node))
		}
		k.report(&k.node.Status)
		if err := k.client.UpdateStatus(k.node); err == nil {
			return
		}
		k.node = nil
	}
}

// overloaded reports whether admitted pods' requests exceed raw capacity —
// possible only through direct binding (daemon pods) or corrupted requests,
// since the scheduler respects allocatable.
func (k *Kubelet) overloaded() bool {
	var cpu int64
	for _, rt := range k.pods {
		if rt.state != stateFailed {
			cpu += rt.pod.RequestsMilliCPU()
		}
	}
	return cpu > k.cfg.CapacityMilliCPU
}

func (k *Kubelet) onPodEvent(ev apiserver.WatchEvent) {
	if k.down {
		return
	}
	pod := ev.Object.(*spec.Pod)
	uid := pod.Metadata.UID
	switch ev.Type {
	case apiserver.Deleted:
		if rt := k.find(uid); rt != nil {
			rt.timer.Stop()
			k.untrackPod(uid)
		}
	case apiserver.Added, apiserver.Modified:
		if pod.Spec.NodeName != k.cfg.NodeName {
			// Pod moved away (corrupted nodeName): the local runtime keeps
			// no claim on it.
			if rt := k.find(uid); rt != nil {
				rt.timer.Stop()
				k.untrackPod(uid)
			}
			return
		}
		if !pod.Active() {
			return
		}
		if rt := k.find(uid); rt != nil {
			rt.pod = pod // refresh spec view
			return
		}
		k.admit(pod)
	}
}

// admit runs kubelet admission: resource fit against raw capacity, with
// critical-pod eviction. High-priority pods (daemon pods) evict
// lower-priority pods to fit — the escalation that turns uncontrolled
// daemon replication into a cluster outage.
func (k *Kubelet) admit(pod *spec.Pod) {
	needCPU, needMem := pod.RequestsMilliCPU(), pod.RequestsMemMB()
	freeCPU := k.cfg.CapacityMilliCPU
	freeMem := k.cfg.CapacityMemMB
	var running []*podRuntime
	for _, rt := range k.pods {
		if rt.state == stateFailed {
			continue
		}
		freeCPU -= rt.pod.RequestsMilliCPU()
		freeMem -= rt.pod.RequestsMemMB()
		running = append(running, rt)
	}
	if needCPU > freeCPU || needMem > freeMem {
		// Try critical-pod admission: evict strictly lower-priority pods.
		if !k.evictForCritical(pod, running, needCPU-freeCPU, needMem-freeMem) {
			k.rejectPod(pod, "OutOfcpu")
			return
		}
	}
	rt := &podRuntime{pod: pod, state: stateWaiting}
	k.trackPod(rt)
	k.startPod(rt)
}

func (k *Kubelet) evictForCritical(pod *spec.Pod, running []*podRuntime, needCPU, needMem int64) bool {
	if pod.Spec.Priority < spec.SystemCriticalPriority {
		return false
	}
	// Sort victims by ascending priority, preferring later-started pods.
	victims := make([]*podRuntime, 0, len(running))
	for _, rt := range running {
		if rt.pod.Spec.Priority < pod.Spec.Priority {
			victims = append(victims, rt)
		}
	}
	sortVictims(victims)
	var chosen []*podRuntime
	for _, rt := range victims {
		if needCPU <= 0 && needMem <= 0 {
			break
		}
		needCPU -= rt.pod.RequestsMilliCPU()
		needMem -= rt.pod.RequestsMemMB()
		chosen = append(chosen, rt)
	}
	if needCPU > 0 || needMem > 0 {
		return false
	}
	for _, rt := range chosen {
		_ = k.client.Delete(spec.KindPod, rt.pod.Metadata.Namespace, rt.pod.Metadata.Name)
		rt.timer.Stop()
		k.untrackPod(rt.pod.Metadata.UID)
	}
	return true
}

func (k *Kubelet) rejectPod(pod *spec.Pod, reason string) {
	pod = spec.CloneForStatusAs(pod) // the argument may be a sealed watch-event object
	pod.Status.Phase = spec.PodFailed
	pod.Status.Reason = reason
	pod.Status.Ready = false
	_ = k.client.UpdateStatus(pod)
}

// startPod walks the container startup pipeline: image pull → network/IP →
// command start → readiness.
func (k *Kubelet) startPod(rt *podRuntime) {
	if k.down {
		return
	}
	pod := rt.pod
	// Image pull: unknown registries fail forever; the first pull of a
	// valid image on a node is slow and variable (it dominates real-world
	// pod startup variance), later pulls hit the node cache.
	for i := range pod.Spec.Containers {
		image := pod.Spec.Containers[i].Image
		if !strings.HasPrefix(image, imageRegistry) {
			rt.state = statePulling
			k.setStatus(rt, spec.PodPending, "ImagePullBackOff", false, "")
			rt.timer = k.loop.After(imagePullRetry, func() { k.startPod(rt) })
			return
		}
		if !k.pulled[image] {
			k.pulled[image] = true
			rt.state = statePulling
			pull := pullDelayMin + time.Duration(k.loop.Rand().Int63n(int64(pullDelaySpread)))
			rt.timer = k.loop.After(pull, func() { k.startPod(rt) })
			return
		}
	}
	// Pod network: allocate an IP from the node CIDR.
	if rt.ip == "" {
		ip, err := k.allocateIP()
		if err != nil {
			rt.state = stateCreating
			k.setStatus(rt, spec.PodPending, "FailedCreatePodSandBox", false, "")
			rt.timer = k.loop.After(imagePullRetry, func() { k.startPod(rt) })
			return
		}
		rt.ip = ip
	}
	// Command start.
	for i := range pod.Spec.Containers {
		cmd := pod.Spec.Containers[i].Command
		if len(cmd) == 0 || !runnableCommands[cmd[0]] {
			k.containerCrash(rt, "RunContainerError")
			return
		}
		// Memory over limit at startup: OOM kill.
		c := &pod.Spec.Containers[i]
		if c.LimitsMemMB > 0 && c.RequestsMemMB > c.LimitsMemMB {
			k.containerCrash(rt, "OOMKilled")
			return
		}
	}
	// Startup delay: volume seed read plus application boot, with realistic
	// run-to-run variance (container start times are noisy in practice;
	// without this the golden-run distributions would be degenerate and
	// every z-score infinite).
	rt.state = stateStarting
	delay := time.Duration(defaultStartupMS)*time.Millisecond +
		time.Duration(k.loop.Rand().Int63n(int64(400*time.Millisecond)))
	if pod.Spec.VolumeSeed != "" {
		delay += volumeReadDelay + time.Duration(k.loop.Rand().Int63n(int64(200*time.Millisecond)))
	}
	rt.timer = k.loop.After(delay, func() {
		if k.down {
			return
		}
		if k.find(rt.pod.Metadata.UID) == nil {
			return
		}
		rt.state = stateRunning
		rt.startedAt = k.loop.Now()
		k.setStatus(rt, spec.PodRunning, "", true, rt.ip)
	})
}

// containerCrash applies the crash-loop circuit breaker: exponentially
// backed-off restarts (§II-D: "when a Pod fails several consecutive times,
// it is restarted with increasing back-off delays").
func (k *Kubelet) containerCrash(rt *podRuntime, reason string) {
	rt.state = stateCrashLoop
	rt.restartCount++
	if rt.backoff == 0 {
		rt.backoff = backoffInitial
	} else {
		rt.backoff *= 2
		if rt.backoff > backoffMax {
			rt.backoff = backoffMax
		}
	}
	k.setStatus(rt, spec.PodPending, reason, false, rt.ip)
	rt.timer = k.loop.After(rt.backoff, func() { k.startPod(rt) })
}

func (k *Kubelet) setStatus(rt *podRuntime, phase, reason string, ready bool, ip string) {
	obj, err := k.client.Get(spec.KindPod, rt.pod.Metadata.Namespace, rt.pod.Metadata.Name)
	if err != nil {
		return
	}
	pod := spec.CloneForStatusAs(obj.(*spec.Pod))
	pod.Status.Phase = phase
	pod.Status.Reason = reason
	pod.Status.Ready = ready
	pod.Status.PodIP = ip
	pod.Status.RestartCount = rt.restartCount
	if ready && pod.Status.StartedMillis == 0 {
		pod.Status.StartedMillis = k.loop.Time().UnixMilli()
	}
	_ = k.client.UpdateStatus(pod)
	rt.pod = pod
}

// syncAllStatuses rewrites the status of every running pod from the local
// runtime view, overwriting any corrupted status fields in the store — a
// natural recovery path ("the PodIP ... is overwritten by the correct value
// sent by kubelets").
func (k *Kubelet) syncAllStatuses() {
	if k.down {
		return
	}
	for _, rt := range k.pods {
		if rt.state != stateRunning {
			continue
		}
		obj, err := k.client.Get(spec.KindPod, rt.pod.Metadata.Namespace, rt.pod.Metadata.Name)
		if err != nil {
			continue
		}
		pod := obj.(*spec.Pod)
		if pod.Status.PodIP != rt.ip || !pod.Status.Ready || pod.Status.Phase != spec.PodRunning {
			pod = spec.CloneForStatusAs(pod)
			pod.Status.PodIP = rt.ip
			pod.Status.Ready = true
			pod.Status.Phase = spec.PodRunning
			pod.Status.RestartCount = rt.restartCount
			_ = k.client.UpdateStatus(pod)
			rt.pod = pod
		}
	}
}

func (k *Kubelet) allocateIP() (string, error) {
	_, ipNet, err := net.ParseCIDR(k.cfg.PodCIDR)
	if err != nil {
		// Fall back to the Node object's CIDR, which may have been edited
		// (or corrupted) after registration.
		obj, getErr := k.client.Get(spec.KindNode, "", k.cfg.NodeName)
		if getErr != nil {
			return "", err
		}
		_, ipNet, err = net.ParseCIDR(obj.(*spec.Node).Spec.PodCIDR)
		if err != nil {
			return "", err
		}
	}
	k.ipSeq++
	ip := ipNet.IP.To4()
	if ip == nil {
		return "", fmt.Errorf("kubelet: non-IPv4 pod CIDR %q", k.cfg.PodCIDR)
	}
	out := net.IPv4(ip[0], ip[1], ip[2], byte(2+k.ipSeq%250))
	return out.String(), nil
}

// search returns where the runtime tracked under uid is in the pod table, or
// where it would go, and whether it is there.
func (k *Kubelet) search(uid string) (int, bool) {
	return slices.BinarySearchFunc(k.pods, uid, func(rt *podRuntime, uid string) int {
		return strings.Compare(rt.uid, uid)
	})
}

// find returns the runtime tracked under uid, nil if there is none.
func (k *Kubelet) find(uid string) *podRuntime {
	if i, ok := k.search(uid); ok {
		return k.pods[i]
	}
	return nil
}

// trackPod enters a runtime in the pod table under its pod's UID.
func (k *Kubelet) trackPod(rt *podRuntime) {
	rt.uid = rt.pod.Metadata.UID
	i, _ := k.search(rt.uid)
	k.pods = slices.Insert(k.pods, i, rt)
	k.scope.Claim(rt.uid)
}

// untrackPod removes the runtime tracked under uid from the pod table.
func (k *Kubelet) untrackPod(uid string) {
	if i, ok := k.search(uid); ok {
		k.pods = slices.Delete(k.pods, i, i+1)
	}
	k.scope.Release(uid)
}

func sortVictims(victims []*podRuntime) {
	slices.SortStableFunc(victims, func(a, b *podRuntime) int {
		if c := cmp.Compare(a.pod.Spec.Priority, b.pod.Spec.Priority); c != 0 {
			return c
		}
		return cmp.Compare(b.startedAt, a.startedAt)
	})
}
