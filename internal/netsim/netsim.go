// Package netsim models the cluster's virtual network: the per-node overlay
// routes programmed by the network-manager DaemonSet (flannel in the
// paper's testbed), the kube-proxy service tables mapping cluster IPs to
// endpoint addresses, and cluster DNS health.
//
// It is the stage where networking corruption becomes client-visible: a
// failed or deleted network-manager pod takes a node's routes down
// (cluster-wide when all of them fail — the Reddit outage pattern), a
// corrupted service selector empties the endpoint table ("connection
// refused"), and a stale or corrupted endpoint IP no longer corresponds to
// any running pod ("connection reset" → intermittent availability).
package netsim

import (
	"strings"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// Labels and names of the system networking workloads.
const (
	NetManagerLabel  = "flannel"
	DNSLabel         = "coredns"
	NetConfigMapName = "flannel-cfg"
	NetConfigKey     = "net-conf"
	NetConfigValue   = "overlay:10.244.0.0/16"
)

// Error kinds observed by clients.
const (
	ErrNone    = ""
	ErrRefused = "refused" // no endpoints / port closed
	ErrTimeout = "timeout" // routes down, node gone
	ErrReset   = "reset"   // endpoint points at a dead pod
)

// RequestResult is the outcome of one client request.
type RequestResult struct {
	Latency time.Duration
	Err     string
}

// Failed reports whether the request failed.
func (r RequestResult) Failed() bool { return r.Err != ErrNone }

const (
	routeDecay      = 10 * time.Second
	baseServiceTime = 30 * time.Millisecond
	proxyLatency    = 2 * time.Millisecond
	podCapacityRPS  = 25.0
	loadWindow      = time.Second
)

// State tracks the simulated data plane. It observes the control plane
// through ordinary watches (it is the kube-proxy + CNI view of the world).
//
// Everything a request reads, apart from the RNG draws and the load windows
// it advances, is kept by the watch handlers in the shape the request reads
// it: one entry per node name, per cluster IP and per Endpoints object, so a
// request is a handful of lookups and no scans (ARCHITECTURE §4).
type State struct {
	loop   *sim.Loop
	client *apiserver.Client

	// configValid is whether the overlay ConfigMap names an overlay network;
	// set on its events, false while it is missing.
	configValid bool

	// nodes holds one entry per node name seen on a Node object or on a
	// system pod. An entry outlives its Node object: route liveness is
	// keyed by the pods' node name, which need not be a node.
	nodes map[string]nodeState

	// vips indexes vipSlots by cluster IP. A slot stays when its Service is
	// deleted, so the round-robin counter survives a delete and re-add.
	vips     map[string]int32
	vipSlots []vipSlot

	// endpoints holds each Endpoints object's addresses, all subsets in
	// order, flattened when the object is observed.
	endpoints map[string][]spec.EndpointAddress // by namespace/name

	pods     map[string]*spec.Pod // by namespace/name
	podsByIP map[string]*spec.Pod // PodIP → active pod

	// windows indexes windowSlots, the pods' load windows, by pod
	// namespace/name. A window is made on a pod's first request and outlives
	// the pod, so a pod re-created under its name inherits the load of the
	// last second.
	windows     map[string]int32
	windowSlots []loadRing
	// spareTimes holds the ring buffers of the windows Reset dropped, for
	// the next windows to reuse.
	spareTimes [][]time.Duration

	// Topology fault state (topology.go): zones with their uplink cut and
	// nodes with their link cut. Both empty on a healthy network; fault state
	// is never snapshotted, so forks always start clean.
	zoneDown map[string]bool
	nodeDown map[string]bool

	cancels []func()
}

// nodeState is what the data plane knows about one node name.
type nodeState struct {
	zone string // zone label of the Node object; "" if unzoned or absent
	// lastReady is when a ready network-manager pod on the node was last
	// observed (valid when seenReady); routes survive routeDecay past it.
	lastReady time.Duration
	flannel   int32 // ready network-manager pods on the node
	dns       int32 // ready DNS pods on the node
	seenReady bool
	isNode    bool // a Node object of this name exists
}

// vipSlot is one cluster IP's kube-proxy entry.
type vipSlot struct {
	svc *spec.Service // nil while no Service holds the IP
	rr  int           // round-robin counter
}

// loadRing is one pod's request times of the last loadWindow, oldest
// first: a ring of n times starting at times[head].
type loadRing struct {
	times   []time.Duration
	head, n int
}

// New builds the network state and subscribes to the control plane.
func New(loop *sim.Loop, eps *apiserver.Endpoints) *State {
	s := &State{
		loop:      loop,
		client:    eps.ClientFor("netsim"),
		nodes:     make(map[string]nodeState),
		vips:      make(map[string]int32),
		endpoints: make(map[string][]spec.EndpointAddress),
		pods:      make(map[string]*spec.Pod),
		podsByIP:  make(map[string]*spec.Pod),
		windows:   make(map[string]int32),
		zoneDown:  make(map[string]bool),
		nodeDown:  make(map[string]bool),
	}
	s.subscribe()
	return s
}

// subscribe registers the data plane's watches with the control plane.
func (s *State) subscribe() {
	s.cancels = append(s.cancels[:0],
		s.client.Watch(spec.KindService, s.onService),
		s.client.Watch(spec.KindEndpoints, s.onEndpoints),
		s.client.Watch(spec.KindPod, s.onPod),
		s.client.Watch(spec.KindNode, s.onNode),
		s.client.Watch(spec.KindConfigMap, s.onConfigMap),
	)
}

// Close detaches all watches.
func (s *State) Close() {
	for _, cancel := range s.cancels {
		cancel()
	}
}

// Reset returns the data plane to the state New left it in, keeping the
// memory of its tables: nothing observed, no fault applied, watching again.
// The server must have been Reset first — it forgot the old watches, which
// are therefore dropped here, not cancelled.
func (s *State) Reset() {
	s.configValid = false
	clear(s.nodes)
	clear(s.vips)
	clear(s.vipSlots)
	s.vipSlots = s.vipSlots[:0]
	clear(s.endpoints)
	clear(s.pods)
	clear(s.podsByIP)
	for i := range s.windowSlots {
		if times := s.windowSlots[i].times; times != nil {
			s.spareTimes = append(s.spareTimes, times)
		}
	}
	clear(s.windows)
	clear(s.windowSlots)
	s.windowSlots = s.windowSlots[:0]
	clear(s.zoneDown)
	clear(s.nodeDown)
	s.subscribe()
}

// Prime rebuilds the data-plane view from the control plane's current state,
// for forked clusters: the watches registered by New only observe changes,
// so a State attached to an already-populated control plane must list the
// existing objects once — the kube-proxy/CNI equivalent of a re-list after
// reconnecting. Nodes whose network-manager pod is ready are treated as
// freshly confirmed (their route-decay clock starts at the prime instant,
// exactly as if the ready status had just been observed).
func (s *State) Prime() {
	for _, o := range s.client.List(spec.KindService, "") {
		s.onService(apiserver.WatchEvent{Type: apiserver.Added, Kind: spec.KindService, Object: o})
	}
	for _, o := range s.client.List(spec.KindEndpoints, "") {
		s.onEndpoints(apiserver.WatchEvent{Type: apiserver.Added, Kind: spec.KindEndpoints, Object: o})
	}
	for _, o := range s.client.List(spec.KindPod, "") {
		s.onPod(apiserver.WatchEvent{Type: apiserver.Added, Kind: spec.KindPod, Object: o})
	}
	for _, o := range s.client.List(spec.KindNode, "") {
		s.onNode(apiserver.WatchEvent{Type: apiserver.Added, Kind: spec.KindNode, Object: o})
	}
	for _, o := range s.client.List(spec.KindConfigMap, "") {
		s.onConfigMap(apiserver.WatchEvent{Type: apiserver.Added, Kind: spec.KindConfigMap, Object: o})
	}
}

func (s *State) onService(ev apiserver.WatchEvent) {
	svc := ev.Object.(*spec.Service)
	ip := svc.Spec.ClusterIP
	i, ok := s.vips[ip]
	if ev.Type == apiserver.Deleted {
		if ok {
			s.vipSlots[i].svc = nil
		}
		return
	}
	if ip == "" {
		return
	}
	if !ok {
		i = int32(len(s.vipSlots))
		s.vips[ip] = i
		s.vipSlots = append(s.vipSlots, vipSlot{})
	}
	s.vipSlots[i].svc = svc
}

func (s *State) onEndpoints(ev apiserver.WatchEvent) {
	ep := ev.Object.(*spec.Endpoints)
	key := ep.Metadata.NamespacedName()
	if ev.Type == apiserver.Deleted {
		delete(s.endpoints, key)
		return
	}
	// The endpoints controller emits a single subset, whose (sealed,
	// immutable) address slice is aliased; more subsets are copied into one.
	var addrs []spec.EndpointAddress
	if len(ep.Subsets) == 1 {
		addrs = ep.Subsets[0].Addresses
	} else {
		for i := range ep.Subsets {
			addrs = append(addrs, ep.Subsets[i].Addresses...)
		}
	}
	s.endpoints[key] = addrs
}

func (s *State) onPod(ev apiserver.WatchEvent) {
	pod := ev.Object.(*spec.Pod)
	key := pod.Metadata.NamespacedName()
	old := s.pods[key]
	next := pod
	if ev.Type == apiserver.Deleted {
		next = nil
		delete(s.pods, key)
	} else {
		s.pods[key] = pod
	}
	s.countSystemPod(old, -1)
	s.countSystemPod(next, +1)
	s.updateIPIndex(old, next)
}

// countSystemPod adds delta to the ready count of the node a ready system
// networking pod runs on; counting a ready network-manager pod in also
// confirms its node's routes now.
func (s *State) countSystemPod(p *spec.Pod, delta int32) {
	if p == nil || !p.Status.Ready || p.Spec.NodeName == "" || p.Metadata.Namespace != spec.SystemNamespace {
		return
	}
	app := p.Metadata.Labels[spec.LabelApp]
	if app != NetManagerLabel && app != DNSLabel {
		return
	}
	n := s.nodes[p.Spec.NodeName]
	if app == DNSLabel {
		n.dns += delta
	} else {
		n.flannel += delta
		if delta > 0 {
			n.lastReady, n.seenReady = s.loop.Now(), true
		}
	}
	s.nodes[p.Spec.NodeName] = n
}

// ipOf returns the indexable IP of a pod: active pods with a status IP.
func ipOf(p *spec.Pod) string {
	if p == nil || !p.Active() {
		return ""
	}
	return p.Status.PodIP
}

// podKeyLess orders pods by namespace/name — the deterministic tie-break for
// duplicate IPs (possible only under corruption), replacing the old
// scan-in-map-order pick.
func podKeyLess(a, b *spec.Pod) bool {
	if a.Metadata.Namespace != b.Metadata.Namespace {
		return a.Metadata.Namespace < b.Metadata.Namespace
	}
	return a.Metadata.Name < b.Metadata.Name
}

// updateIPIndex maintains podsByIP across one pod transition. The common case
// (status refresh, same IP) is a pointer swap; a released IP triggers a
// deterministic rescan only when the departing pod was the mapped one.
func (s *State) updateIPIndex(old, next *spec.Pod) {
	oldIP, newIP := ipOf(old), ipOf(next)
	if oldIP == newIP {
		if oldIP == "" {
			return
		}
		if s.podsByIP[oldIP] == old {
			s.podsByIP[oldIP] = next
		} else {
			s.claimIP(newIP, next)
		}
		return
	}
	if oldIP != "" && s.podsByIP[oldIP] == old {
		delete(s.podsByIP, oldIP)
		s.rescanIP(oldIP)
	}
	if newIP != "" {
		s.claimIP(newIP, next)
	}
}

func (s *State) claimIP(ip string, p *spec.Pod) {
	if cur, ok := s.podsByIP[ip]; !ok || podKeyLess(p, cur) {
		s.podsByIP[ip] = p
	}
}

// rescanIP re-elects the mapped pod for an IP after the previous holder left
// it; duplicates exist only under corrupted PodIPs, so this scan is cold.
func (s *State) rescanIP(ip string) {
	var best *spec.Pod
	for _, p := range s.pods {
		if ipOf(p) == ip && (best == nil || podKeyLess(p, best)) {
			best = p
		}
	}
	if best != nil {
		s.podsByIP[ip] = best
	}
}

func (s *State) onNode(ev apiserver.WatchEvent) {
	node := ev.Object.(*spec.Node)
	name := node.Metadata.Name
	n := s.nodes[name]
	if ev.Type == apiserver.Deleted {
		n.zone, n.isNode = "", false
	} else {
		n.zone, n.isNode = node.Metadata.Labels[LabelZone], true
	}
	s.nodes[name] = n
}

func (s *State) onConfigMap(ev apiserver.WatchEvent) {
	cm := ev.Object.(*spec.ConfigMap)
	if cm.Metadata.Namespace != spec.SystemNamespace || cm.Metadata.Name != NetConfigMapName {
		return
	}
	s.configValid = ev.Type != apiserver.Deleted && strings.Contains(cm.Data[NetConfigKey], "overlay")
}

// RoutesUp reports whether a node's overlay routes are operational: the
// network configuration must be sane and the node's network-manager pod
// must be (recently) ready.
func (s *State) RoutesUp(node string) bool {
	return s.routesUp(s.nodes[node])
}

func (s *State) routesUp(n nodeState) bool {
	if !s.configValid || !n.seenReady {
		return false
	}
	// Routes persist briefly after the manager pod stops being ready, then
	// decay (restart loops and reconfigurations flush them).
	return n.flannel > 0 || s.loop.Now()-n.lastReady < routeDecay
}

// DNSHealthy reports whether cluster DNS can answer: at least one ready DNS
// pod on a routable node. (The node count is tiny and the answer is a single
// bool, so iterating the node map cannot introduce order dependence.)
func (s *State) DNSHealthy() bool {
	for _, n := range s.nodes {
		if n.dns > 0 && s.routesUp(n) {
			return true
		}
	}
	return false
}

// NetworkPodsFailing reports whether any expected network-manager pod is
// missing or not ready (a Stall/Outage signal for the classifier).
func (s *State) NetworkPodsFailing() bool {
	nodes := 0
	for _, n := range s.nodes {
		if n.isNode {
			if n.flannel <= 0 {
				return true
			}
			nodes++
		}
	}
	return nodes == 0
}

// Request performs one client request from fromNode to a service VIP.
func (s *State) Request(fromNode, clusterIP string, port int64) RequestResult {
	i, ok := s.vips[clusterIP]
	if !ok || s.vipSlots[i].svc == nil {
		return RequestResult{Err: ErrRefused}
	}
	vip := &s.vipSlots[i]
	// Service port → target port.
	var targetPort int64 = -1
	for _, p := range vip.svc.Spec.Ports {
		if p.Port == port {
			targetPort = p.TargetPort
			break
		}
	}
	if targetPort < 0 {
		return RequestResult{Err: ErrRefused}
	}
	addrs := s.endpoints[vip.svc.Metadata.NamespacedName()]
	if len(addrs) == 0 {
		return RequestResult{Err: ErrRefused}
	}
	from := s.nodes[fromNode]
	addr := s.pickEndpoint(vip, from.zone, addrs)

	// Overlay path between client node and endpoint node: per-node routes,
	// node links, and the zone links between them must all be up.
	to := s.nodes[addr.NodeName]
	if !s.routeBetween(fromNode, from, addr.NodeName, to) {
		return RequestResult{Err: ErrTimeout}
	}
	// The link class between the caller's and the endpoint's zones sets the
	// request's network envelope: latency, loss, and bandwidth. On flat
	// clusters every path is LinkLocal and this is the old fixed proxy hop.
	prof := linkProfiles[LinkClassBetween(from.zone, to.zone)]
	if prof.Loss > 0 && s.loop.Rand().Float64() < prof.Loss {
		return RequestResult{Err: ErrTimeout}
	}
	// The endpoint must correspond to a live, ready pod at that IP.
	pod := s.podsByIP[addr.IP]
	if pod == nil || !pod.Status.Ready || pod.Spec.NodeName != addr.NodeName {
		return RequestResult{Err: ErrReset}
	}
	// The pod must actually listen on the target port.
	if !podListensOn(pod, targetPort) {
		return RequestResult{Err: ErrRefused}
	}
	return RequestResult{Latency: prof.Latency + s.serviceLatency(pod, prof.Bandwidth)}
}

// pickEndpoint applies kube-proxy's topology-aware round-robin: when the
// caller's zone has ready endpoints, traffic stays in-zone; otherwise it
// spills over all endpoints. Unzoned callers (flat clusters) round-robin
// over everything, exactly the pre-topology behavior.
func (s *State) pickEndpoint(vip *vipSlot, fromZone string, addrs []spec.EndpointAddress) spec.EndpointAddress {
	n := vip.rr
	vip.rr++
	if fromZone != "" {
		same := 0
		for i := range addrs {
			if s.ZoneOf(addrs[i].NodeName) == fromZone {
				same++
			}
		}
		if same > 0 && same < len(addrs) {
			k := n % same
			for i := range addrs {
				if s.ZoneOf(addrs[i].NodeName) == fromZone {
					if k == 0 {
						return addrs[i]
					}
					k--
				}
			}
		}
	}
	return addrs[n%len(addrs)]
}

func podListensOn(pod *spec.Pod, port int64) bool {
	for i := range pod.Spec.Containers {
		if pod.Spec.Containers[i].Port == port {
			return true
		}
	}
	return false
}

// serviceLatency models an M/M/1-ish response time: the base service time
// is inflated as the pod's recent request rate approaches its capacity, so
// under-provisioned services (fewer pods than intended) answer slower —
// the LeR → HRT propagation of Table III. bandwidth scales the base for
// responses crossing a thin cross-zone link (1.0 in-zone).
func (s *State) serviceLatency(pod *spec.Pod, bandwidth float64) time.Duration {
	recent := s.window(pod.Metadata.NamespacedName()).admit(s.loop.Now())
	rate := float64(recent) / loadWindow.Seconds()
	rho := rate / podCapacityRPS
	if rho >= 0.95 {
		rho = 0.95
	}
	base := time.Duration(float64(baseServiceTime+podSpeedOffset(pod.Metadata.UID)) * bandwidth)
	lat := time.Duration(float64(base) / (1 - rho))
	// Per-request jitter keeps golden-run variance non-zero so z-scores are
	// well-defined.
	jitter := time.Duration(s.loop.Rand().Int63n(int64(8 * time.Millisecond)))
	return lat + jitter
}

// window returns the load window of the pod named key, making it on the
// pod's first request.
func (s *State) window(key string) *loadRing {
	if i, ok := s.windows[key]; ok {
		return &s.windowSlots[i]
	}
	var w loadRing
	if n := len(s.spareTimes); n > 0 {
		w.times = s.spareTimes[n-1]
		s.spareTimes[n-1] = nil
		s.spareTimes = s.spareTimes[:n-1]
	}
	s.windows[key] = int32(len(s.windowSlots))
	s.windowSlots = append(s.windowSlots, w)
	return &s.windowSlots[len(s.windowSlots)-1]
}

// admit drops the times that fell out of the window, records a request at
// now and returns how many the window holds. Times arrive in order (the loop
// clock never runs back between Resets), so the expired ones lead the ring.
func (w *loadRing) admit(now time.Duration) int {
	for w.n > 0 && now-w.times[w.head] >= loadWindow {
		w.head = (w.head + 1) % len(w.times)
		w.n--
	}
	if w.n == len(w.times) {
		// Double, as append would: a pod that serves once costs one word.
		grown := make([]time.Duration, max(1, 2*len(w.times)))
		k := copy(grown, w.times[w.head:])
		copy(grown[k:], w.times[:w.head])
		w.times, w.head = grown, 0
	}
	w.times[(w.head+w.n)%len(w.times)] = now
	w.n++
	return w.n
}

// podSpeedOffset derives a stable per-pod service-time offset (pods differ:
// node placement, cache warmth), in [0, 6ms).
func podSpeedOffset(uid string) time.Duration {
	var h uint32 = 2166136261
	for i := 0; i < len(uid); i++ {
		h ^= uint32(uid[i])
		h *= 16777619
	}
	return time.Duration(h%6) * time.Millisecond
}
