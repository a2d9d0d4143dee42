package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// dataPlane is what the differential tests drive and read, on State and on
// the reference alike.
type dataPlane interface {
	Request(fromNode, clusterIP string, port int64) RequestResult
	RoutesUp(node string) bool
	RouteBetween(from, to string) bool
	ZoneOf(node string) string
	DNSHealthy() bool
	NetworkPodsFailing() bool
	TopologyImpaired() bool
	SetZoneLink(zone string, up bool)
	SetNodeLink(node string, up bool)
	Close()
	Reset()
	Prime()
}

// The program's vocabulary: small on purpose, so that programs collide —
// duplicate pod IPs, endpoints naming dead pods and unknown nodes, a service
// re-created on the VIP another one left.
var (
	pathNodes = []string{"n0", "n1", "n2", "ghost"} // ghost is never a Node
	pathZones = []string{"", "core", "regional-1", "edge-2"}
	pathIPs   = []string{"10.244.0.1", "10.244.0.2", "10.244.0.3", ""}
	pathPods  = []string{"p0", "p1", "p2", "p3"}
	pathNSs   = []string{spec.DefaultNamespace, spec.SystemNamespace}
	pathApps  = []string{"web", NetManagerLabel, DNSLabel}
	pathVIPs  = []string{"10.96.0.1", "10.96.0.2", "10.96.0.9"}
	pathSvcs  = []string{"web", "api"}
	pathPorts = []int64{80, 443}
	// Each op is followed by 2 ms of event delivery: a step of 2 ms less than
	// the route decay lands on its boundary.
	pathSteps = []time.Duration{0, 20 * time.Millisecond, 50 * time.Millisecond, 400 * time.Millisecond,
		loadWindow, 4 * time.Second, routeDecay - 2*time.Millisecond, routeDecay + time.Second}
)

// side is one control plane with one data plane watching it.
type side struct {
	loop *sim.Loop
	api  *apiserver.Client
	net  dataPlane
}

func newSide(reference bool) *side {
	loop := sim.NewLoop(7)
	srv := apiserver.New(loop, store.NewReplicated(loop, 1, nil), nil)
	s := &side{loop: loop, api: srv.ClientFor("test")}
	if reference {
		s.net = newRef(loop, srv.Endpoints())
	} else {
		s.net = New(loop, srv.Endpoints())
	}
	for _, ns := range pathNSs {
		_ = s.api.Create(&spec.Namespace{Metadata: spec.ObjectMeta{Name: ns}, Phase: "Active"})
	}
	return s
}

// pathPair runs one program on two sides — State and the reference, on loops
// of the same seed — and fails on the first answer that differs.
type pathPair struct {
	t     testing.TB
	sides [2]*side
	step  int
	what  string
	// outcomes counts request outcomes by error kind ("ok" for success).
	outcomes  map[string]int
	lastBurst time.Duration
}

func newPathPair(t testing.TB) *pathPair {
	return &pathPair{t: t, sides: [2]*side{newSide(false), newSide(true)}, outcomes: make(map[string]int)}
}

// do applies op to both sides, delivers its watch events, and compares.
func (p *pathPair) do(what string, op func(s *side) error) {
	p.t.Helper()
	p.step++
	p.what = what
	var errs [2]string
	for i, s := range p.sides {
		if err := op(s); err != nil {
			errs[i] = err.Error()
		}
		s.loop.RunUntil(s.loop.Now() + 2*time.Millisecond)
	}
	if errs[0] != errs[1] {
		p.t.Fatalf("step %d (%s): error %q, reference %q", p.step, what, errs[0], errs[1])
	}
	p.compare()
}

func (p *pathPair) fail(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("step %d (%s): %s", p.step, p.what, fmt.Sprintf(format, args...))
}

// compare holds every read-only answer of the two data planes equal.
func (p *pathPair) compare() {
	p.t.Helper()
	a, b := p.sides[0].net, p.sides[1].net
	for _, n := range pathNodes {
		if x, y := a.RoutesUp(n), b.RoutesUp(n); x != y {
			p.fail("RoutesUp(%s) = %v, reference %v", n, x, y)
		}
		if x, y := a.ZoneOf(n), b.ZoneOf(n); x != y {
			p.fail("ZoneOf(%s) = %q, reference %q", n, x, y)
		}
		for _, m := range pathNodes {
			if x, y := a.RouteBetween(n, m), b.RouteBetween(n, m); x != y {
				p.fail("RouteBetween(%s, %s) = %v, reference %v", n, m, x, y)
			}
		}
	}
	if x, y := a.DNSHealthy(), b.DNSHealthy(); x != y {
		p.fail("DNSHealthy = %v, reference %v", x, y)
	}
	if x, y := a.NetworkPodsFailing(), b.NetworkPodsFailing(); x != y {
		p.fail("NetworkPodsFailing = %v, reference %v", x, y)
	}
	if x, y := a.TopologyImpaired(), b.TopologyImpaired(); x != y {
		p.fail("TopologyImpaired = %v, reference %v", x, y)
	}
}

// request issues one request on both sides and compares the results and the
// random number each loop draws next.
func (p *pathPair) request(from, vip string, port int64) {
	p.t.Helper()
	x := p.sides[0].net.Request(from, vip, port)
	y := p.sides[1].net.Request(from, vip, port)
	if x != y {
		p.fail("Request(%s, %s:%d) = %+v, reference %+v", from, vip, port, x, y)
	}
	if dx, dy := p.sides[0].loop.Rand().Int63(), p.sides[1].loop.Rand().Int63(); dx != dy {
		p.fail("after Request(%s, %s:%d): next draw %d, reference %d", from, vip, port, dx, dy)
	}
	if x.Failed() {
		p.outcomes[x.Err]++
	} else {
		p.outcomes["ok"]++
	}
}

func pathPod(ns, name, app, node, ip string, ready bool, phase string, port int64) *spec.Pod {
	return &spec.Pod{
		Metadata: spec.ObjectMeta{Name: name, Namespace: ns, Labels: map[string]string{spec.LabelApp: app}},
		Spec: spec.PodSpec{NodeName: node, Containers: []spec.Container{{
			Name: "c", Image: "registry.local/" + app + ":1", Command: []string{app}, Port: port,
		}}},
		Status: spec.PodStatus{Phase: phase, Ready: ready, PodIP: ip},
	}
}

// put creates obj, or replaces the object of its name with it.
func (s *side) put(obj spec.Object) error {
	m := obj.Meta()
	cur, err := s.api.Get(obj.Kind(), m.Namespace, m.Name)
	if err != nil {
		return s.api.Create(obj)
	}
	m.ResourceVersion = cur.Meta().ResourceVersion
	m.UID = cur.Meta().UID
	return s.api.Update(obj)
}

// prelude builds a working data plane: a sane overlay config, three nodes
// (zoned or flat) each with a ready network manager, DNS on n0, and the web
// service on VIP 10.96.0.1 backed by one ready pod per node.
func (p *pathPair) prelude(zoned bool) {
	p.do("config", func(s *side) error {
		return s.api.Create(&spec.ConfigMap{
			Metadata: spec.ObjectMeta{Name: NetConfigMapName, Namespace: spec.SystemNamespace},
			Data:     map[string]string{NetConfigKey: NetConfigValue},
		})
	})
	for i, n := range pathNodes[:3] {
		zone := ""
		if zoned {
			zone = ZoneName(i, 3)
		}
		p.do("node "+n, func(s *side) error {
			return s.api.Create(&spec.Node{
				Metadata: spec.ObjectMeta{Name: n, Labels: map[string]string{LabelZone: zone}},
				Status:   spec.NodeStatus{Ready: true},
			})
		})
		p.do("flannel on "+n, func(s *side) error {
			return s.api.Create(pathPod(spec.SystemNamespace, pathPods[i], NetManagerLabel, n, "", true, spec.PodRunning, 0))
		})
		p.do("web on "+n, func(s *side) error {
			return s.api.Create(pathPod(spec.DefaultNamespace, pathPods[i], "web", n, pathIPs[i], true, spec.PodRunning, 8080))
		})
	}
	p.do("dns", func(s *side) error {
		return s.api.Create(pathPod(spec.SystemNamespace, pathPods[3], DNSLabel, "n0", "", true, spec.PodRunning, 53))
	})
	p.do("service", func(s *side) error {
		return s.api.Create(pathService("web", pathVIPs[0], 80))
	})
	p.do("endpoints", func(s *side) error {
		return s.api.Create(&spec.Endpoints{
			Metadata: spec.ObjectMeta{Name: "web", Namespace: spec.DefaultNamespace},
			Subsets: []spec.EndpointSubset{{Addresses: []spec.EndpointAddress{
				{IP: pathIPs[0], NodeName: "n0"}, {IP: pathIPs[1], NodeName: "n1"}, {IP: pathIPs[2], NodeName: "n2"},
			}, Ports: []int64{8080}}},
		})
	})
}

func pathService(name, vip string, port int64) *spec.Service {
	return &spec.Service{
		Metadata: spec.ObjectMeta{Name: name, Namespace: spec.DefaultNamespace},
		Spec: spec.ServiceSpec{
			Selector:  map[string]string{spec.LabelApp: name},
			ClusterIP: vip,
			Ports:     []spec.ServicePort{{Port: port, TargetPort: 8080, Protocol: "TCP"}},
		},
	}
}

// run interprets data as a program: its first byte picks a flat or a zoned
// prelude, every following op is one byte plus its operands' bytes.
func (p *pathPair) run(data []byte) {
	p.t.Helper()
	pos := 0
	more := func() bool { return pos < len(data) }
	next := func(n int) int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1]) % n
	}
	p.prelude(next(2) == 1)
	for more() {
		switch op := next(32); {
		case op < 2: // re-create a pod as it was: same name, a new UID
			ns, name := pathNSs[next(3)/2], pathPods[next(4)]
			p.do("re-create pod "+ns+"/"+name, func(s *side) error {
				obj, err := s.api.Get(spec.KindPod, ns, name)
				if err != nil {
					return err
				}
				if err := s.api.Delete(spec.KindPod, ns, name); err != nil {
					return err
				}
				pod := spec.CloneForWriteAs(obj.(*spec.Pod))
				pod.Metadata.UID, pod.Metadata.ResourceVersion = "", 0
				return s.api.Create(pod)
			})
		case op < 6: // create a pod, or replace one under its name
			ns, name, app := pathNSs[next(3)/2], pathPods[next(4)], pathApps[next(3)]
			if ns == spec.DefaultNamespace && next(4) != 0 { // mostly web pods in default
				app = "web"
			}
			node, ip, ready := pathNodes[next(4)], pathIPs[next(4)], next(4) != 0
			phase, port := spec.PodRunning, int64(8080)
			if next(5) == 0 {
				phase = spec.PodFailed
			}
			if next(4) == 0 {
				port = 9090
			}
			p.do("put pod "+ns+"/"+name, func(s *side) error {
				if _, err := s.api.Get(spec.KindPod, ns, name); err == nil {
					if err := s.api.Delete(spec.KindPod, ns, name); err != nil {
						return err
					}
				}
				return s.api.Create(pathPod(ns, name, app, node, ip, ready, phase, port))
			})
		case op < 9: // change a pod's status: readiness, IP, phase
			ns, name := pathNSs[next(2)], pathPods[next(4)]
			ip, ready, failed := pathIPs[next(4)], next(3) != 0, next(5) == 0
			p.do("status of pod "+ns+"/"+name, func(s *side) error {
				obj, err := s.api.Get(spec.KindPod, ns, name)
				if err != nil {
					return err
				}
				pod := spec.CloneForWriteAs(obj.(*spec.Pod))
				pod.Status.PodIP, pod.Status.Ready = ip, ready
				if failed {
					pod.Status.Phase = spec.PodFailed
				}
				return s.api.UpdateStatus(pod)
			})
		case op < 10:
			ns, name := pathNSs[next(2)], pathPods[next(4)]
			p.do("delete pod "+ns+"/"+name, func(s *side) error { return s.api.Delete(spec.KindPod, ns, name) })
		case op < 12: // add a node or relabel its zone
			name, zone := pathNodes[next(3)], pathZones[next(4)]
			p.do("put node "+name+" in zone "+zone, func(s *side) error {
				return s.put(&spec.Node{
					Metadata: spec.ObjectMeta{Name: name, Labels: map[string]string{LabelZone: zone}},
					Status:   spec.NodeStatus{Ready: true},
				})
			})
		case op < 13:
			name := pathNodes[next(3)]
			p.do("delete node "+name, func(s *side) error { return s.api.Delete(spec.KindNode, "", name) })
		case op < 15: // restore, corrupt or delete the overlay config
			v := max(0, next(4)-1) // restored twice as often
			p.do(fmt.Sprintf("config %d", v), func(s *side) error {
				if v == 2 {
					return s.api.Delete(spec.KindConfigMap, spec.SystemNamespace, NetConfigMapName)
				}
				value := NetConfigValue
				if v == 1 {
					value = "ovurlay:garbage"
				}
				return s.put(&spec.ConfigMap{
					Metadata: spec.ObjectMeta{Name: NetConfigMapName, Namespace: spec.SystemNamespace},
					Data:     map[string]string{NetConfigKey: value},
				})
			})
		case op < 17: // add a service or move it to another VIP or port
			name, vip, port := pathSvcs[next(2)], pathVIPs[next(4)/3], pathPorts[next(4)/3]
			p.do("put service "+name+" on "+vip, func(s *side) error { return s.put(pathService(name, vip, port)) })
		case op < 18:
			name := pathSvcs[next(2)]
			p.do("delete service "+name, func(s *side) error {
				return s.api.Delete(spec.KindService, spec.DefaultNamespace, name)
			})
		case op < 20: // endpoints of zero to two subsets, addresses drawn from the vocabulary
			name := pathSvcs[next(2)]
			ep := &spec.Endpoints{Metadata: spec.ObjectMeta{Name: name, Namespace: spec.DefaultNamespace}}
			for range []int{0, 1, 1, 2}[next(4)] {
				var sub spec.EndpointSubset
				for range 1 + next(3) {
					sub.Addresses = append(sub.Addresses, spec.EndpointAddress{IP: pathIPs[next(4)], NodeName: pathNodes[next(4)]})
				}
				ep.Subsets = append(ep.Subsets, sub)
			}
			p.do(fmt.Sprintf("put endpoints %s (%d subsets)", name, len(ep.Subsets)), func(s *side) error {
				return s.put(spec.CloneForWriteAs(ep))
			})
		case op < 21:
			name := pathSvcs[next(2)]
			p.do("delete endpoints "+name, func(s *side) error {
				return s.api.Delete(spec.KindEndpoints, spec.DefaultNamespace, name)
			})
		case op < 22:
			zone, up := pathZones[1+next(3)], next(2) == 0
			p.do(fmt.Sprintf("zone link %s up=%v", zone, up), func(s *side) error { s.net.SetZoneLink(zone, up); return nil })
		case op < 23:
			node, up := pathNodes[next(4)], next(2) == 0
			p.do(fmt.Sprintf("node link %s up=%v", node, up), func(s *side) error { s.net.SetNodeLink(node, up); return nil })
		case op < 26:
			d := pathSteps[next(len(pathSteps))]
			p.do("advance "+d.String(), func(s *side) error { s.loop.RunUntil(s.loop.Now() + d); return nil })
		case op < 27:
			p.do("reset and prime", func(s *side) error { s.net.Close(); s.net.Reset(); s.net.Prime(); return nil })
		default: // a burst of requests at one instant, a third of them one load window after the last
			if at := p.lastBurst + loadWindow - 2*time.Millisecond; next(3) == 0 && at >= p.sides[0].loop.Now() {
				p.do("advance to one window after the last burst", func(s *side) error { s.loop.RunUntil(at); return nil })
			}
			p.lastBurst = p.sides[0].loop.Now()
			for range 1 + next(8) {
				from, vip, port := pathNodes[next(4)], pathVIPs[max(0, next(8)-5)], pathPorts[next(8)/7]
				p.what = "request from " + from + " to " + vip
				p.request(from, vip, port)
			}
		}
	}
}

// TestRequestPathMatchesReference holds State to the map-per-fact data plane
// it replaced: the same random programs of pod, node, config, service,
// endpoints and topology events, time steps, rewinds and request bursts give
// the same answers, the same request results and the same next random draw.
func TestRequestPathMatchesReference(t *testing.T) {
	outcomes := make(map[string]int)
	for seed := int64(1); seed <= 200; seed++ {
		data := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(data)
		data[0] = byte(seed) // alternate flat and zoned preludes
		p := newPathPair(t)
		p.run(data)
		for k, n := range p.outcomes {
			outcomes[k] += n
		}
	}
	t.Logf("request outcomes: %v", outcomes)
	// The programs must reach every outcome, or they test less than they seem.
	for _, k := range []string{"ok", ErrRefused, ErrTimeout, ErrReset} {
		if outcomes[k] < 100 {
			t.Errorf("only %d %q requests over all programs: %v", outcomes[k], k, outcomes)
		}
	}
}

// FuzzRequestPath is TestRequestPathMatchesReference on any program.
func FuzzRequestPath(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 200)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		newPathPair(t).run(data)
	})
}

// TestRequestAllocatesNothing holds the steady-state request to zero
// allocations, at the client's 20 requests per second: on the flat harness,
// on the zoned one with a backend in each of two zones, and against an
// Endpoints object of two subsets.
func TestRequestAllocatesNothing(t *testing.T) {
	twoSubsets := func(h *harness) {
		h.mustCreate(h.webPod("web-2", "node-a", "10.244.1.3"))
		obj, err := h.api.Get(spec.KindEndpoints, spec.DefaultNamespace, "web")
		if err != nil {
			t.Fatal(err)
		}
		ep := spec.CloneForWriteAs(obj.(*spec.Endpoints))
		ep.Subsets = append(ep.Subsets, spec.EndpointSubset{
			Addresses: []spec.EndpointAddress{{IP: "10.244.1.3", NodeName: "node-a"}},
			Ports:     []int64{8080},
		})
		if err := h.api.Update(ep); err != nil {
			t.Fatal(err)
		}
		h.loop.RunUntil(h.loop.Now() + time.Second)
	}
	for _, c := range []struct {
		name  string
		build func() *harness
		from  string
	}{
		{"flat", func() *harness { return newHarness(t) }, "node-a"},
		{"zoned", func() *harness { h := newZonedHarness(t); h.addEdgeBackend(t); return h }, "node-reg"},
		{"two subsets", func() *harness { h := newHarness(t); twoSubsets(h); return h }, "node-a"},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := c.build()
			served := 0
			issue := func() {
				h.loop.RunUntil(h.loop.Now() + time.Second/20)
				if !h.state.Request(c.from, "10.96.0.1", 80).Failed() {
					served++
				}
			}
			for range 100 { // every backend's window made and at its steady size
				issue()
			}
			if allocs := testing.AllocsPerRun(200, issue); allocs != 0 {
				t.Errorf("%.1f allocations per request", allocs)
			}
			if served < 250 {
				t.Errorf("only %d of 301 requests served", served)
			}
		})
	}
}

var requestSink RequestResult

// BenchmarkRequest is one request at the client's rate on the flat harness.
func BenchmarkRequest(b *testing.B) {
	h := newHarness(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.loop.RunUntil(h.loop.Now() + time.Second/20)
		requestSink = h.state.Request("node-a", "10.96.0.1", 80)
	}
}
