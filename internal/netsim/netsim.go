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
type State struct {
	loop   *sim.Loop
	client *apiserver.Client

	services  map[string]*spec.Service   // by clusterIP
	endpoints map[string]*spec.Endpoints // by namespace/name
	pods      map[string]*spec.Pod       // by namespace/name
	nodes     map[string]*spec.Node      // by name
	// nodeZone is the zone label of every zoned node, kept beside nodes so
	// ZoneOf — several calls per request — is one lookup, and none at all on
	// a flat cluster, where the table stays empty.
	nodeZone  map[string]string
	netConfig string

	// flannelLastReady records when a node's network-manager pod was last
	// observed ready; routes survive routeDecay past that.
	flannelLastReady map[string]time.Duration

	// Derived indexes, maintained incrementally on pod events so the
	// request path (20 req/s × every experiment) and the health probes never
	// scan the pods map: ready network-manager pods per node, ready DNS pods
	// per node, and pods by IP.
	flannelReady map[string]int       // node → ready flannel pod count
	dnsReady     map[string]int       // node → ready DNS pod count
	podsByIP     map[string]*spec.Pod // PodIP → active pod

	rr       map[string]int // round-robin counter per clusterIP
	reqTimes map[string][]time.Duration

	// Topology fault state (topology.go): zones with their uplink cut and
	// nodes with their link cut. Both empty on a healthy network; fault state
	// is never snapshotted, so forks always start clean.
	zoneDown map[string]bool
	nodeDown map[string]bool

	cancels []func()
}

// New builds the network state and subscribes to the control plane.
func New(loop *sim.Loop, eps *apiserver.Endpoints) *State {
	s := &State{
		loop:             loop,
		client:           eps.ClientFor("netsim"),
		services:         make(map[string]*spec.Service),
		endpoints:        make(map[string]*spec.Endpoints),
		pods:             make(map[string]*spec.Pod),
		nodes:            make(map[string]*spec.Node),
		nodeZone:         make(map[string]string),
		flannelLastReady: make(map[string]time.Duration),
		flannelReady:     make(map[string]int),
		dnsReady:         make(map[string]int),
		podsByIP:         make(map[string]*spec.Pod),
		rr:               make(map[string]int),
		reqTimes:         make(map[string][]time.Duration),
		zoneDown:         make(map[string]bool),
		nodeDown:         make(map[string]bool),
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
	clear(s.services)
	clear(s.endpoints)
	clear(s.pods)
	clear(s.nodes)
	clear(s.nodeZone)
	s.netConfig = ""
	clear(s.flannelLastReady)
	clear(s.flannelReady)
	clear(s.dnsReady)
	clear(s.podsByIP)
	clear(s.rr)
	clear(s.reqTimes)
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
	if ev.Type == apiserver.Deleted {
		delete(s.services, svc.Spec.ClusterIP)
		return
	}
	if svc.Spec.ClusterIP != "" {
		s.services[svc.Spec.ClusterIP] = svc
	}
}

func (s *State) onEndpoints(ev apiserver.WatchEvent) {
	ep := ev.Object.(*spec.Endpoints)
	key := ep.Metadata.NamespacedName()
	if ev.Type == apiserver.Deleted {
		delete(s.endpoints, key)
		return
	}
	s.endpoints[key] = ep
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
	s.updateSystemIndex(old, next)
	s.updateIPIndex(old, next)
	if next != nil && isSystemApp(next, NetManagerLabel) && next.Status.Ready && next.Spec.NodeName != "" {
		s.flannelLastReady[next.Spec.NodeName] = s.loop.Now()
	}
}

func isSystemApp(pod *spec.Pod, label string) bool {
	return pod.Metadata.Namespace == spec.SystemNamespace &&
		pod.Metadata.Labels[spec.LabelApp] == label
}

// updateSystemIndex maintains the per-node ready counts of the two system
// networking workloads across one pod transition (old → next; nil on either
// side for add/delete).
func (s *State) updateSystemIndex(old, next *spec.Pod) {
	bump := func(p *spec.Pod, delta int) {
		if p == nil || !p.Status.Ready || p.Spec.NodeName == "" {
			return
		}
		switch {
		case isSystemApp(p, NetManagerLabel):
			s.flannelReady[p.Spec.NodeName] += delta
		case isSystemApp(p, DNSLabel):
			s.dnsReady[p.Spec.NodeName] += delta
		}
	}
	bump(old, -1)
	bump(next, +1)
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
	if ev.Type == apiserver.Deleted {
		delete(s.nodes, name)
		delete(s.nodeZone, name)
		return
	}
	s.nodes[name] = node
	if zone := node.Metadata.Labels[LabelZone]; zone != "" {
		s.nodeZone[name] = zone
	} else {
		delete(s.nodeZone, name)
	}
}

func (s *State) onConfigMap(ev apiserver.WatchEvent) {
	cm := ev.Object.(*spec.ConfigMap)
	if cm.Metadata.Namespace != spec.SystemNamespace || cm.Metadata.Name != NetConfigMapName {
		return
	}
	if ev.Type == apiserver.Deleted {
		s.netConfig = ""
		return
	}
	s.netConfig = cm.Data[NetConfigKey]
}

// RoutesUp reports whether a node's overlay routes are operational: the
// network configuration must be sane and the node's network-manager pod
// must be (recently) ready.
func (s *State) RoutesUp(node string) bool {
	if !s.configValid() {
		return false
	}
	last, ok := s.flannelLastReady[node]
	if !ok {
		return false
	}
	// Routes persist briefly after the manager pod stops being ready, then
	// decay (restart loops and reconfigurations flush them).
	if pod := s.readyFlannelPod(node); pod {
		return true
	}
	return s.loop.Now()-last < routeDecay
}

func (s *State) readyFlannelPod(node string) bool {
	return s.flannelReady[node] > 0
}

func (s *State) configValid() bool {
	return strings.Contains(s.netConfig, "overlay")
}

// DNSHealthy reports whether cluster DNS can answer: at least one ready DNS
// pod on a routable node. (The node count is tiny and the answer is a single
// bool, so iterating the index map cannot introduce order dependence.)
func (s *State) DNSHealthy() bool {
	for node, n := range s.dnsReady {
		if n > 0 && s.RoutesUp(node) {
			return true
		}
	}
	return false
}

// NetworkPodsFailing reports whether any expected network-manager pod is
// missing or not ready (a Stall/Outage signal for the classifier).
func (s *State) NetworkPodsFailing() bool {
	for name := range s.nodes {
		if !s.readyFlannelPod(name) {
			return true
		}
	}
	return len(s.nodes) == 0
}

// Request performs one client request from fromNode to a service VIP.
func (s *State) Request(fromNode, clusterIP string, port int64) RequestResult {
	svc, ok := s.services[clusterIP]
	if !ok {
		return RequestResult{Err: ErrRefused}
	}
	// Service port → target port.
	var targetPort int64 = -1
	for _, p := range svc.Spec.Ports {
		if p.Port == port {
			targetPort = p.TargetPort
			break
		}
	}
	if targetPort < 0 {
		return RequestResult{Err: ErrRefused}
	}
	ep, ok := s.endpoints[svc.Metadata.NamespacedName()]
	if !ok || ep.Count() == 0 {
		return RequestResult{Err: ErrRefused}
	}
	// kube-proxy round-robin across all subset addresses. The endpoints
	// controller emits a single subset, so the common case aliases its
	// (sealed, immutable) address slice instead of flattening per request.
	var addrs []spec.EndpointAddress
	if len(ep.Subsets) == 1 {
		addrs = ep.Subsets[0].Addresses
	} else {
		for i := range ep.Subsets {
			addrs = append(addrs, ep.Subsets[i].Addresses...)
		}
	}
	addr := s.pickEndpoint(clusterIP, fromNode, addrs)

	// Overlay path between client node and endpoint node: per-node routes,
	// node links, and the zone links between them must all be up.
	if !s.RouteBetween(fromNode, addr.NodeName) {
		return RequestResult{Err: ErrTimeout}
	}
	// The link class between the caller's and the endpoint's zones sets the
	// request's network envelope: latency, loss, and bandwidth. On flat
	// clusters every path is LinkLocal and this is the old fixed proxy hop.
	prof := linkProfiles[LinkClassBetween(s.ZoneOf(fromNode), s.ZoneOf(addr.NodeName))]
	if prof.Loss > 0 && s.loop.Rand().Float64() < prof.Loss {
		return RequestResult{Err: ErrTimeout}
	}
	// The endpoint must correspond to a live, ready pod at that IP.
	pod := s.findPodByIP(addr.IP)
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
func (s *State) pickEndpoint(clusterIP, fromNode string, addrs []spec.EndpointAddress) spec.EndpointAddress {
	n := s.rr[clusterIP]
	s.rr[clusterIP]++
	if fromZone := s.ZoneOf(fromNode); fromZone != "" {
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

func (s *State) findPodByIP(ip string) *spec.Pod {
	if ip == "" {
		return nil
	}
	return s.podsByIP[ip]
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
	key := pod.Metadata.NamespacedName() // cached on sealed pods

	now := s.loop.Now()
	times := s.reqTimes[key]
	keep := times[:0]
	for _, t := range times {
		if now-t < loadWindow {
			keep = append(keep, t)
		}
	}
	keep = append(keep, now)
	s.reqTimes[key] = keep

	rate := float64(len(keep)) / loadWindow.Seconds()
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
