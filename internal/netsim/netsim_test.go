package netsim

import (
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// harness wires a netsim state to a bare apiserver and populates a minimal
// two-node data plane: flannel pods on both nodes, a config map, a service
// with one ready backend pod.
type harness struct {
	loop  *sim.Loop
	state *State
	api   *apiserver.Client
}

func newHarness(t testing.TB) *harness {
	t.Helper()
	loop := sim.NewLoop(1)
	st := store.NewReplicated(loop, 1, nil)
	srv := apiserver.New(loop, st, nil)
	h := &harness{loop: loop, state: New(loop, srv.Endpoints()), api: srv.ClientFor("test")}

	for _, ns := range []string{spec.DefaultNamespace, spec.SystemNamespace} {
		h.mustCreate(&spec.Namespace{Metadata: spec.ObjectMeta{Name: ns}, Phase: "Active"})
	}
	h.mustCreate(&spec.ConfigMap{
		Metadata: spec.ObjectMeta{Name: NetConfigMapName, Namespace: spec.SystemNamespace},
		Data:     map[string]string{NetConfigKey: NetConfigValue},
	})
	for i, node := range []string{"node-a", "node-b"} {
		h.mustCreate(&spec.Node{
			Metadata: spec.ObjectMeta{Name: node},
			Status:   spec.NodeStatus{Ready: true},
		})
		h.mustCreate(h.flannelPod(node, i))
	}
	h.mustCreate(&spec.Service{
		Metadata: spec.ObjectMeta{Name: "web", Namespace: spec.DefaultNamespace},
		Spec: spec.ServiceSpec{
			Selector:  map[string]string{"app": "web"},
			ClusterIP: "10.96.0.1",
			Ports:     []spec.ServicePort{{Port: 80, TargetPort: 8080, Protocol: "TCP"}},
		},
	})
	h.mustCreate(h.webPod("web-1", "node-b", "10.244.2.2"))
	h.mustCreate(&spec.Endpoints{
		Metadata: spec.ObjectMeta{Name: "web", Namespace: spec.DefaultNamespace},
		Subsets: []spec.EndpointSubset{{
			Addresses: []spec.EndpointAddress{{IP: "10.244.2.2", NodeName: "node-b",
				TargetRef: spec.TargetRef{Kind: "Pod", Name: "web-1"}}},
			Ports: []int64{8080},
		}},
	})
	loop.RunUntil(time.Second)
	return h
}

func (h *harness) mustCreate(obj spec.Object) {
	if err := h.api.Create(obj); err != nil {
		panic(err)
	}
}

func (h *harness) flannelPod(node string, i int) *spec.Pod {
	return &spec.Pod{
		Metadata: spec.ObjectMeta{
			Name: "flannel-" + node, Namespace: spec.SystemNamespace,
			Labels: map[string]string{spec.LabelApp: NetManagerLabel},
		},
		Spec: spec.PodSpec{NodeName: node, Containers: []spec.Container{{
			Name: "f", Image: "registry.local/flannel:1", Command: []string{"flanneld"},
		}}},
		Status: spec.PodStatus{Phase: spec.PodRunning, Ready: true, PodIP: "10.244.0." + string(rune('2'+i))},
	}
}

func (h *harness) webPod(name, node, ip string) *spec.Pod {
	return &spec.Pod{
		Metadata: spec.ObjectMeta{
			Name: name, Namespace: spec.DefaultNamespace,
			Labels: map[string]string{"app": "web"},
		},
		Spec: spec.PodSpec{NodeName: node, Containers: []spec.Container{{
			Name: "web", Image: "registry.local/web:1", Command: []string{"serve"}, Port: 8080,
		}}},
		Status: spec.PodStatus{Phase: spec.PodRunning, Ready: true, PodIP: ip},
	}
}

func TestRequestSucceedsOnHealthyPath(t *testing.T) {
	h := newHarness(t)
	res := h.state.Request("node-a", "10.96.0.1", 80)
	if res.Failed() {
		t.Fatalf("request failed: %s", res.Err)
	}
	if res.Latency <= 0 {
		t.Fatal("no latency modeled")
	}
}

func TestUnknownVIPRefused(t *testing.T) {
	h := newHarness(t)
	if res := h.state.Request("node-a", "10.96.9.9", 80); res.Err != ErrRefused {
		t.Fatalf("err = %q, want refused", res.Err)
	}
}

func TestWrongPortRefused(t *testing.T) {
	h := newHarness(t)
	if res := h.state.Request("node-a", "10.96.0.1", 443); res.Err != ErrRefused {
		t.Fatalf("err = %q, want refused (no such service port)", res.Err)
	}
}

func TestEmptyEndpointsRefused(t *testing.T) {
	h := newHarness(t)
	obj, err := h.api.Get(spec.KindEndpoints, spec.DefaultNamespace, "web")
	if err != nil {
		t.Fatal(err)
	}
	ep := spec.CloneForWriteAs(obj.(*spec.Endpoints))
	ep.Subsets = nil
	if err := h.api.Update(ep); err != nil {
		t.Fatal(err)
	}
	h.loop.RunUntil(h.loop.Now() + time.Second)
	if res := h.state.Request("node-a", "10.96.0.1", 80); res.Err != ErrRefused {
		t.Fatalf("err = %q, want refused (no endpoints)", res.Err)
	}
}

func TestStaleEndpointReset(t *testing.T) {
	h := newHarness(t)
	// Kill the backing pod but leave the endpoints stale.
	if err := h.api.Delete(spec.KindPod, spec.DefaultNamespace, "web-1"); err != nil {
		t.Fatal(err)
	}
	h.loop.RunUntil(h.loop.Now() + time.Second)
	if res := h.state.Request("node-a", "10.96.0.1", 80); res.Err != ErrReset {
		t.Fatalf("err = %q, want reset (stale endpoint)", res.Err)
	}
}

func TestRoutesDecayAfterFlannelPodDies(t *testing.T) {
	h := newHarness(t)
	if !h.state.RoutesUp("node-b") {
		t.Fatal("routes should be up initially")
	}
	if err := h.api.Delete(spec.KindPod, spec.SystemNamespace, "flannel-node-b"); err != nil {
		t.Fatal(err)
	}
	h.loop.RunUntil(h.loop.Now() + time.Second)
	// Routes persist briefly...
	if !h.state.RoutesUp("node-b") {
		t.Fatal("routes dropped immediately; they should decay")
	}
	// ...then decay.
	h.loop.RunUntil(h.loop.Now() + routeDecay + time.Second)
	if h.state.RoutesUp("node-b") {
		t.Fatal("routes still up after decay window")
	}
	if res := h.state.Request("node-a", "10.96.0.1", 80); res.Err != ErrTimeout {
		t.Fatalf("err = %q, want timeout (routes down)", res.Err)
	}
	if !h.state.NetworkPodsFailing() {
		t.Fatal("NetworkPodsFailing = false with a dead flannel pod")
	}
}

func TestCorruptedNetConfigDropsAllRoutes(t *testing.T) {
	// The paper's "misconfigured networking daemons that caused a global
	// network outage": corrupting the overlay ConfigMap takes every node's
	// routes down (the Reddit-style cluster-wide failure).
	h := newHarness(t)
	obj, err := h.api.Get(spec.KindConfigMap, spec.SystemNamespace, NetConfigMapName)
	if err != nil {
		t.Fatal(err)
	}
	cm := spec.CloneForWriteAs(obj.(*spec.ConfigMap))
	cm.Data[NetConfigKey] = "ovurlay:garbage" // single corrupted value
	if err := h.api.Update(cm); err != nil {
		t.Fatal(err)
	}
	h.loop.RunUntil(h.loop.Now() + time.Second)
	if h.state.RoutesUp("node-a") || h.state.RoutesUp("node-b") {
		t.Fatal("routes survived config corruption")
	}
	if res := h.state.Request("node-a", "10.96.0.1", 80); res.Err != ErrTimeout {
		t.Fatalf("err = %q, want timeout (global outage)", res.Err)
	}
}

func TestDNSHealth(t *testing.T) {
	h := newHarness(t)
	if h.state.DNSHealthy() {
		t.Fatal("DNS healthy without DNS pods")
	}
	dns := h.webPod("coredns-1", "node-a", "10.244.0.9")
	dns.Metadata.Namespace = spec.SystemNamespace
	dns.Metadata.Labels = map[string]string{spec.LabelApp: DNSLabel}
	h.mustCreate(dns)
	h.loop.RunUntil(h.loop.Now() + time.Second)
	if !h.state.DNSHealthy() {
		t.Fatal("DNS unhealthy with a ready DNS pod")
	}
}

func TestRoundRobinSpreadsLoad(t *testing.T) {
	h := newHarness(t)
	// The same burst of 40 requests, first on the one backend, then — once
	// the burst has left the load window — on two: round-robin halves each
	// pod's load, so the average must fall below the single backend's.
	burst := func(backends int) time.Duration {
		t.Helper()
		var sum time.Duration
		for i := 0; i < 40; i++ {
			res := h.state.Request("node-a", "10.96.0.1", 80)
			if res.Failed() {
				t.Fatalf("%d backends: request %d failed: %s", backends, i, res.Err)
			}
			sum += res.Latency
		}
		return sum / 40
	}
	single := burst(1)

	h.mustCreate(h.webPod("web-2", "node-a", "10.244.1.3"))
	obj, err := h.api.Get(spec.KindEndpoints, spec.DefaultNamespace, "web")
	if err != nil {
		t.Fatal(err)
	}
	ep := spec.CloneForWriteAs(obj.(*spec.Endpoints))
	ep.Subsets[0].Addresses = append(ep.Subsets[0].Addresses, spec.EndpointAddress{
		IP: "10.244.1.3", NodeName: "node-a", TargetRef: spec.TargetRef{Kind: "Pod", Name: "web-2"},
	})
	if err := h.api.Update(ep); err != nil {
		t.Fatal(err)
	}
	h.loop.RunUntil(h.loop.Now() + loadWindow)
	double := burst(2)

	if double >= single {
		t.Fatalf("average latency %v with two backends, not below the single backend's %v", double, single)
	}
	if double > 120*time.Millisecond {
		t.Fatalf("average latency %v implausible with two backends", double)
	}
}

func TestLatencyRisesWithLoad(t *testing.T) {
	h := newHarness(t)
	first := h.state.Request("node-a", "10.96.0.1", 80).Latency
	var last time.Duration
	for i := 0; i < 30; i++ {
		last = h.state.Request("node-a", "10.96.0.1", 80).Latency
	}
	if last <= first {
		t.Fatalf("latency did not grow under burst load: first %v, last %v", first, last)
	}
}

// zonedHarness builds a three-zone cloud-edge data plane: one node per zone
// (core, regional-1, edge-2), flannel on each, and a web service backed by a
// single pod in the core zone.
func newZonedHarness(t testing.TB) *harness {
	t.Helper()
	loop := sim.NewLoop(1)
	st := store.NewReplicated(loop, 1, nil)
	srv := apiserver.New(loop, st, nil)
	h := &harness{loop: loop, state: New(loop, srv.Endpoints()), api: srv.ClientFor("test")}

	for _, ns := range []string{spec.DefaultNamespace, spec.SystemNamespace} {
		h.mustCreate(&spec.Namespace{Metadata: spec.ObjectMeta{Name: ns}, Phase: "Active"})
	}
	h.mustCreate(&spec.ConfigMap{
		Metadata: spec.ObjectMeta{Name: NetConfigMapName, Namespace: spec.SystemNamespace},
		Data:     map[string]string{NetConfigKey: NetConfigValue},
	})
	for i, node := range []string{"node-core", "node-reg", "node-edge"} {
		h.mustCreate(&spec.Node{
			Metadata: spec.ObjectMeta{
				Name:   node,
				Labels: map[string]string{spec.LabelZone: ZoneName(i, 3)},
			},
			Status: spec.NodeStatus{Ready: true},
		})
		h.mustCreate(h.flannelPod(node, i))
	}
	h.mustCreate(&spec.Service{
		Metadata: spec.ObjectMeta{Name: "web", Namespace: spec.DefaultNamespace},
		Spec: spec.ServiceSpec{
			Selector:  map[string]string{"app": "web"},
			ClusterIP: "10.96.0.1",
			Ports:     []spec.ServicePort{{Port: 80, TargetPort: 8080, Protocol: "TCP"}},
		},
	})
	h.mustCreate(h.webPod("web-core", "node-core", "10.244.10.2"))
	h.mustCreate(&spec.Endpoints{
		Metadata: spec.ObjectMeta{Name: "web", Namespace: spec.DefaultNamespace},
		Subsets: []spec.EndpointSubset{{
			Addresses: []spec.EndpointAddress{{IP: "10.244.10.2", NodeName: "node-core",
				TargetRef: spec.TargetRef{Kind: "Pod", Name: "web-core"}}},
			Ports: []int64{8080},
		}},
	})
	loop.RunUntil(time.Second)
	return h
}

// addEdgeBackend grows the web service with a second pod in the edge zone.
func (h *harness) addEdgeBackend(t *testing.T) {
	t.Helper()
	h.mustCreate(h.webPod("web-edge", "node-edge", "10.244.11.2"))
	obj, err := h.api.Get(spec.KindEndpoints, spec.DefaultNamespace, "web")
	if err != nil {
		t.Fatal(err)
	}
	ep := spec.CloneForWriteAs(obj.(*spec.Endpoints))
	ep.Subsets[0].Addresses = append(ep.Subsets[0].Addresses, spec.EndpointAddress{
		IP: "10.244.11.2", NodeName: "node-edge",
		TargetRef: spec.TargetRef{Kind: "Pod", Name: "web-edge"},
	})
	if err := h.api.Update(ep); err != nil {
		t.Fatal(err)
	}
	h.loop.RunUntil(h.loop.Now() + time.Second)
}

// request retries through link loss: edge links drop a small fraction of
// requests, so tests that care about latency take the first success.
func (h *harness) request(t *testing.T, from string) RequestResult {
	t.Helper()
	for i := 0; i < 20; i++ {
		res := h.state.Request(from, "10.96.0.1", 80)
		if !res.Failed() {
			return res
		}
		if res.Err != ErrTimeout {
			t.Fatalf("request from %s: err = %q, want success or loss timeout", from, res.Err)
		}
	}
	t.Fatalf("request from %s: 20 consecutive losses", from)
	return RequestResult{}
}

// ZoneOf answers from a table kept beside the node map, so it has to follow
// every way a node's zone can change — and come back after a rewind.
func TestZoneOfFollowsNodeEvents(t *testing.T) {
	h := newZonedHarness(t)
	core, reg, edge := ZoneName(0, 3), ZoneName(1, 3), ZoneName(2, 3)
	check := func(step string, want map[string]string) {
		t.Helper()
		h.loop.RunUntil(h.loop.Now() + time.Second)
		for node, zone := range want {
			if got := h.state.ZoneOf(node); got != zone {
				t.Errorf("%s: ZoneOf(%s) = %q, want %q", step, node, got, zone)
			}
		}
	}
	relabel := func(node string, labels map[string]string) {
		t.Helper()
		obj, err := h.api.Get(spec.KindNode, "", node)
		if err != nil {
			t.Fatal(err)
		}
		n := spec.CloneForWriteAs(obj.(*spec.Node))
		n.Metadata.Labels = labels
		if err := h.api.Update(n); err != nil {
			t.Fatal(err)
		}
	}
	check("watched", map[string]string{"node-core": core, "node-reg": reg, "node-edge": edge, "no-such-node": ""})

	relabel("node-reg", map[string]string{spec.LabelZone: edge})
	check("moved to another zone", map[string]string{"node-reg": edge})
	relabel("node-edge", nil)
	check("zone label removed", map[string]string{"node-edge": ""})
	if err := h.api.Delete(spec.KindNode, "", "node-core"); err != nil {
		t.Fatal(err)
	}
	check("deleted", map[string]string{"node-core": "", "node-reg": edge})

	// A rewind empties the table; Prime re-reads the server, which here
	// still holds the objects as the steps above left them.
	h.state.Reset()
	check("reset", map[string]string{"node-reg": ""})
	h.state.Prime()
	check("primed", map[string]string{"node-core": "", "node-reg": edge, "node-edge": ""})
}

func TestLinkClassBetween(t *testing.T) {
	cases := []struct {
		a, b string
		want LinkClass
	}{
		{"", "", LinkLocal},
		{"core", "core", LinkLocal},
		{"edge-2", "edge-2", LinkLocal},
		{"core", "regional-1", LinkRegional},
		{"regional-1", "core", LinkRegional},
		{"core", "edge-2", LinkEdge},
		{"edge-2", "regional-1", LinkEdge},
	}
	for _, c := range cases {
		if got := LinkClassBetween(c.a, c.b); got != c.want {
			t.Errorf("LinkClassBetween(%q, %q) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

func TestZoneNames(t *testing.T) {
	if z := ZoneName(0, 3); z != "core" {
		t.Fatalf("zone 0 = %q, want core", z)
	}
	if z := ZoneName(1, 3); z != "regional-1" {
		t.Fatalf("zone 1 = %q, want regional-1", z)
	}
	if z := ZoneName(2, 3); z != "edge-2" || !ZoneIsEdge(z) {
		t.Fatalf("zone 2 = %q, want an edge zone", z)
	}
	if z := ZoneName(0, 1); z != "" {
		t.Fatalf("flat cluster zone = %q, want empty", z)
	}
}

func TestCrossZoneLatencyPerHop(t *testing.T) {
	h := newZonedHarness(t)
	if z := h.state.ZoneOf("node-edge"); z != "edge-2" {
		t.Fatalf("ZoneOf(node-edge) = %q, want edge-2", z)
	}
	// Core → core backend: local link, no cross-zone hop.
	local := h.request(t, "node-core").Latency
	if local >= ProfileFor(LinkEdge).Latency {
		t.Fatalf("intra-zone latency %v at or above the edge-link floor", local)
	}
	// Edge → core backend: the edge link adds its latency floor and halves
	// effective bandwidth, so the request is strictly slower.
	cross := h.request(t, "node-edge").Latency
	if cross < ProfileFor(LinkEdge).Latency {
		t.Fatalf("cross-edge latency %v below the %v link floor", cross, ProfileFor(LinkEdge).Latency)
	}
	if cross <= local {
		t.Fatalf("cross-edge latency %v not above intra-zone %v", cross, local)
	}
}

func TestEdgeLinkLoss(t *testing.T) {
	h := newZonedHarness(t)
	losses := 0
	for i := 0; i < 500; i++ {
		if res := h.state.Request("node-edge", "10.96.0.1", 80); res.Err == ErrTimeout {
			losses++
		}
	}
	if losses == 0 {
		t.Fatal("no losses over 500 requests across a 2%-loss edge link")
	}
	if losses > 50 {
		t.Fatalf("%d/500 losses implausible for a 2%%-loss link", losses)
	}
}

func TestSameZonePreferenceAvoidsEdgeLink(t *testing.T) {
	h := newZonedHarness(t)
	h.addEdgeBackend(t)
	// With a ready same-zone backend, kube-proxy keeps edge traffic local:
	// no request is lost, and none pays the cross-edge floor (40ms link +
	// bandwidth-doubled service time ≥ 100ms total).
	for i := 0; i < 5; i++ {
		res := h.state.Request("node-edge", "10.96.0.1", 80)
		if res.Failed() {
			t.Fatalf("request %d failed (%s): same-zone path has no loss", i, res.Err)
		}
		if res.Latency >= 90*time.Millisecond {
			t.Fatalf("request %d latency %v crossed the edge link despite a local backend", i, res.Latency)
		}
	}
	// The regional node has no local backend and must spill cross-zone.
	if res := h.request(t, "node-reg"); res.Latency < ProfileFor(LinkRegional).Latency {
		t.Fatalf("regional spill-over latency %v below the regional link floor", res.Latency)
	}
}

func TestZonePartitionReachabilityMatrix(t *testing.T) {
	h := newZonedHarness(t)
	h.state.SetZoneLink("edge-2", false)

	if !h.state.ZoneLinkCut("edge-2") || !h.state.TopologyImpaired() {
		t.Fatal("partition not reflected in zone state")
	}
	want := map[[2]string]bool{
		{"node-core", "node-reg"}:  true,  // core ↔ regional unaffected
		{"node-core", "node-edge"}: false, // uplink cut
		{"node-reg", "node-edge"}:  false,
		{"node-edge", "node-edge"}: true, // intra-zone traffic survives
		{"node-core", "node-core"}: true,
	}
	for pair, reachable := range want {
		if got := h.state.RouteBetween(pair[0], pair[1]); got != reachable {
			t.Errorf("RouteBetween(%s, %s) = %v, want %v", pair[0], pair[1], got, reachable)
		}
	}
	if res := h.state.Request("node-edge", "10.96.0.1", 80); res.Err != ErrTimeout {
		t.Fatalf("partitioned edge request err = %q, want timeout", res.Err)
	}
	// Core clients never left the core zone.
	if res := h.request(t, "node-core"); res.Failed() {
		t.Fatalf("core request failed during edge partition: %s", res.Err)
	}

	h.state.SetZoneLink("edge-2", true)
	if h.state.TopologyImpaired() {
		t.Fatal("still impaired after heal")
	}
	if !h.state.RouteBetween("node-core", "node-edge") {
		t.Fatal("edge unreachable after heal")
	}
	if res := h.request(t, "node-edge"); res.Failed() {
		t.Fatalf("edge request failed after heal: %s", res.Err)
	}
}

func TestEdgeFlapRecovery(t *testing.T) {
	h := newZonedHarness(t)
	// Flap the edge uplink several times; each down half-cycle times out,
	// each up half-cycle serves again — no sticky state is left behind.
	for cycle := 0; cycle < 3; cycle++ {
		h.state.SetZoneLink("edge-2", false)
		if res := h.state.Request("node-edge", "10.96.0.1", 80); res.Err != ErrTimeout {
			t.Fatalf("cycle %d down: err = %q, want timeout", cycle, res.Err)
		}
		h.state.SetZoneLink("edge-2", true)
		if res := h.request(t, "node-edge"); res.Failed() {
			t.Fatalf("cycle %d up: request failed: %s", cycle, res.Err)
		}
	}
	if h.state.TopologyImpaired() {
		t.Fatal("impaired after final heal")
	}
}

func TestNodeLinkCutAndDNSReachability(t *testing.T) {
	h := newZonedHarness(t)
	dns := h.webPod("coredns-1", "node-core", "10.244.0.9")
	dns.Metadata.Namespace = spec.SystemNamespace
	dns.Metadata.Labels = map[string]string{spec.LabelApp: DNSLabel}
	h.mustCreate(dns)
	h.loop.RunUntil(h.loop.Now() + time.Second)

	if !h.state.DNSHealthy() || !h.state.RouteBetween("node-edge", "node-core") {
		t.Fatal("DNS unreachable from edge on a healthy topology")
	}
	// Cut the edge node's own link: it can reach nothing, and nothing
	// reaches it — but other nodes are untouched.
	h.state.SetNodeLink("node-edge", false)
	if h.state.RouteBetween("node-edge", "node-core") || h.state.RouteBetween("node-core", "node-edge") {
		t.Fatal("cut node still routable")
	}
	if !h.state.RouteBetween("node-reg", "node-core") {
		t.Fatal("node-level cut leaked into another zone")
	}
	h.state.SetNodeLink("node-edge", true)
	if !h.state.RouteBetween("node-edge", "node-core") || h.state.TopologyImpaired() {
		t.Fatal("node link heal did not restore reachability")
	}
	// A zone partition severs DNS for the isolated zone only.
	h.state.SetZoneLink("edge-2", false)
	if h.state.RouteBetween("node-edge", "node-core") {
		t.Fatal("DNS reachable across a cut zone uplink")
	}
	if !h.state.RouteBetween("node-reg", "node-core") {
		t.Fatal("edge partition severed regional DNS")
	}
}
