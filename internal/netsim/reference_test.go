package netsim

import (
	"strings"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// refState is the data plane as it was before its request path kept its
// answers: one map per fact, every request re-deriving what it reads (the
// overlay config by string search, route liveness from three maps, the
// endpoint list by flattening, the load window by filtering). It is the
// reference the differential tests hold State to; it is not kept fast.
type refState struct {
	loop   *sim.Loop
	client *apiserver.Client

	services         map[string]*spec.Service   // by clusterIP
	endpoints        map[string]*spec.Endpoints // by namespace/name
	pods             map[string]*spec.Pod       // by namespace/name
	nodes            map[string]*spec.Node      // by name
	nodeZone         map[string]string
	netConfig        string
	flannelLastReady map[string]time.Duration
	flannelReady     map[string]int
	dnsReady         map[string]int
	podsByIP         map[string]*spec.Pod
	rr               map[string]int // by clusterIP
	reqTimes         map[string][]time.Duration
	zoneDown         map[string]bool
	nodeDown         map[string]bool

	cancels []func()
}

func newRef(loop *sim.Loop, eps *apiserver.Endpoints) *refState {
	s := &refState{loop: loop, client: eps.ClientFor("netsim")}
	s.Reset()
	return s
}

// Reset starts every table afresh and subscribes again.
func (s *refState) Reset() {
	s.services = make(map[string]*spec.Service)
	s.endpoints = make(map[string]*spec.Endpoints)
	s.pods = make(map[string]*spec.Pod)
	s.nodes = make(map[string]*spec.Node)
	s.nodeZone = make(map[string]string)
	s.netConfig = ""
	s.flannelLastReady = make(map[string]time.Duration)
	s.flannelReady = make(map[string]int)
	s.dnsReady = make(map[string]int)
	s.podsByIP = make(map[string]*spec.Pod)
	s.rr = make(map[string]int)
	s.reqTimes = make(map[string][]time.Duration)
	s.zoneDown = make(map[string]bool)
	s.nodeDown = make(map[string]bool)
	s.cancels = append(s.cancels[:0],
		s.client.Watch(spec.KindService, s.onService),
		s.client.Watch(spec.KindEndpoints, s.onEndpoints),
		s.client.Watch(spec.KindPod, s.onPod),
		s.client.Watch(spec.KindNode, s.onNode),
		s.client.Watch(spec.KindConfigMap, s.onConfigMap),
	)
}

func (s *refState) Close() {
	for _, cancel := range s.cancels {
		cancel()
	}
}

func (s *refState) Prime() {
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

func (s *refState) onService(ev apiserver.WatchEvent) {
	svc := ev.Object.(*spec.Service)
	if ev.Type == apiserver.Deleted {
		delete(s.services, svc.Spec.ClusterIP)
		return
	}
	if svc.Spec.ClusterIP != "" {
		s.services[svc.Spec.ClusterIP] = svc
	}
}

func (s *refState) onEndpoints(ev apiserver.WatchEvent) {
	ep := ev.Object.(*spec.Endpoints)
	key := ep.Metadata.NamespacedName()
	if ev.Type == apiserver.Deleted {
		delete(s.endpoints, key)
		return
	}
	s.endpoints[key] = ep
}

func (s *refState) onPod(ev apiserver.WatchEvent) {
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
	if next != nil && refIsSystemApp(next, NetManagerLabel) && next.Status.Ready && next.Spec.NodeName != "" {
		s.flannelLastReady[next.Spec.NodeName] = s.loop.Now()
	}
}

func refIsSystemApp(pod *spec.Pod, label string) bool {
	return pod.Metadata.Namespace == spec.SystemNamespace &&
		pod.Metadata.Labels[spec.LabelApp] == label
}

func (s *refState) updateSystemIndex(old, next *spec.Pod) {
	bump := func(p *spec.Pod, delta int) {
		if p == nil || !p.Status.Ready || p.Spec.NodeName == "" {
			return
		}
		switch {
		case refIsSystemApp(p, NetManagerLabel):
			s.flannelReady[p.Spec.NodeName] += delta
		case refIsSystemApp(p, DNSLabel):
			s.dnsReady[p.Spec.NodeName] += delta
		}
	}
	bump(old, -1)
	bump(next, +1)
}

func (s *refState) updateIPIndex(old, next *spec.Pod) {
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

func (s *refState) claimIP(ip string, p *spec.Pod) {
	if cur, ok := s.podsByIP[ip]; !ok || podKeyLess(p, cur) {
		s.podsByIP[ip] = p
	}
}

func (s *refState) rescanIP(ip string) {
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

func (s *refState) onNode(ev apiserver.WatchEvent) {
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

func (s *refState) onConfigMap(ev apiserver.WatchEvent) {
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

func (s *refState) RoutesUp(node string) bool {
	if !strings.Contains(s.netConfig, "overlay") {
		return false
	}
	last, ok := s.flannelLastReady[node]
	if !ok {
		return false
	}
	if s.flannelReady[node] > 0 {
		return true
	}
	return s.loop.Now()-last < routeDecay
}

func (s *refState) DNSHealthy() bool {
	for node, n := range s.dnsReady {
		if n > 0 && s.RoutesUp(node) {
			return true
		}
	}
	return false
}

func (s *refState) NetworkPodsFailing() bool {
	for name := range s.nodes {
		if s.flannelReady[name] <= 0 {
			return true
		}
	}
	return len(s.nodes) == 0
}

func (s *refState) Request(fromNode, clusterIP string, port int64) RequestResult {
	svc, ok := s.services[clusterIP]
	if !ok {
		return RequestResult{Err: ErrRefused}
	}
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
	var addrs []spec.EndpointAddress
	for i := range ep.Subsets {
		addrs = append(addrs, ep.Subsets[i].Addresses...)
	}
	addr := s.pickEndpoint(clusterIP, fromNode, addrs)
	if !s.RouteBetween(fromNode, addr.NodeName) {
		return RequestResult{Err: ErrTimeout}
	}
	prof := linkProfiles[LinkClassBetween(s.ZoneOf(fromNode), s.ZoneOf(addr.NodeName))]
	if prof.Loss > 0 && s.loop.Rand().Float64() < prof.Loss {
		return RequestResult{Err: ErrTimeout}
	}
	var pod *spec.Pod
	if addr.IP != "" {
		pod = s.podsByIP[addr.IP]
	}
	if pod == nil || !pod.Status.Ready || pod.Spec.NodeName != addr.NodeName {
		return RequestResult{Err: ErrReset}
	}
	if !podListensOn(pod, targetPort) {
		return RequestResult{Err: ErrRefused}
	}
	return RequestResult{Latency: prof.Latency + s.serviceLatency(pod, prof.Bandwidth)}
}

func (s *refState) pickEndpoint(clusterIP, fromNode string, addrs []spec.EndpointAddress) spec.EndpointAddress {
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

func (s *refState) serviceLatency(pod *spec.Pod, bandwidth float64) time.Duration {
	key := pod.Metadata.NamespacedName()
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
	jitter := time.Duration(s.loop.Rand().Int63n(int64(8 * time.Millisecond)))
	return lat + jitter
}

func (s *refState) ZoneOf(node string) string { return s.nodeZone[node] }

func (s *refState) SetZoneLink(zone string, up bool) {
	if up {
		delete(s.zoneDown, zone)
		return
	}
	s.zoneDown[zone] = true
}

func (s *refState) SetNodeLink(node string, up bool) {
	if up {
		delete(s.nodeDown, node)
		return
	}
	s.nodeDown[node] = true
}

func (s *refState) RouteBetween(from, to string) bool {
	if s.nodeDown[from] || s.nodeDown[to] {
		return false
	}
	if !s.RoutesUp(from) || !s.RoutesUp(to) {
		return false
	}
	a, b := s.ZoneOf(from), s.ZoneOf(to)
	return a == b || (!s.zoneDown[a] && !s.zoneDown[b])
}

func (s *refState) TopologyImpaired() bool {
	return len(s.zoneDown)+len(s.nodeDown) > 0
}
