// Topology: named zones and per-link classes over the virtual network.
//
// A zoned cluster (cluster.Config.Zones >= 2) spreads its nodes over a cloud
// core zone, optional regional zones, and an edge zone. Zone membership is
// ordinary cluster state — a label on the Node object — so the data plane
// learns it through the same node watch that feeds the route table, and a
// forked cluster rebuilds the zone view with the normal Prime re-list.
//
// Links between zones carry a class (local, regional, edge) with a latency,
// loss and bandwidth profile; Request resolves the class from the caller's
// and the serving pod's zones, so cross-zone requests are measurably slower
// and lossier than intra-zone ones, and kube-proxy prefers same-zone
// endpoints when any are ready (topology-aware routing). The fault axes cut
// whole zone uplinks (partition, flap) or individual node links (mass
// node-kill); both manifest as timeouts on the affected paths only.
package netsim

import (
	"strings"
	"time"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// LabelZone is the node label carrying zone membership (the upstream
// topology.kubernetes.io/zone convention).
const LabelZone = spec.LabelZone

// ZoneName names zone i of a zones-sized topology: zone 0 is the cloud core,
// the last zone is the edge, anything between is regional. Flat clusters
// (zones < 2) have no zone names.
func ZoneName(i, zones int) string {
	if zones < 2 || i < 0 || i >= zones {
		return ""
	}
	switch {
	case i == 0:
		return "core"
	case i == zones-1:
		return "edge-" + itoa(i)
	default:
		return "regional-" + itoa(i)
	}
}

// itoa avoids strconv for the tiny zone indexes.
func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + string(rune('0'+i%10))
}

// ZoneIsEdge reports whether a zone name denotes an edge zone.
func ZoneIsEdge(zone string) bool { return strings.HasPrefix(zone, "edge") }

// LinkClass classifies the network path between two zones.
type LinkClass int

const (
	// LinkLocal is the intra-zone (or flat-cluster) path: datacenter wiring.
	LinkLocal LinkClass = iota
	// LinkRegional connects the core to a regional zone (or two regional
	// zones): metro fiber, moderate latency, near-zero loss.
	LinkRegional
	// LinkEdge reaches an edge zone: high-latency, lossy, bandwidth-starved
	// last-mile links.
	LinkEdge
)

// String names the link class for tables and tests.
func (c LinkClass) String() string {
	switch c {
	case LinkRegional:
		return "regional"
	case LinkEdge:
		return "edge"
	default:
		return "local"
	}
}

// LinkProfile is the performance envelope of one link class.
type LinkProfile struct {
	// Latency is the per-request network latency across the link (the
	// kube-proxy hop for local traffic).
	Latency time.Duration
	// Loss is the probability one request is dropped on the link.
	Loss float64
	// Bandwidth inflates the service time of responses crossing the link
	// (payload transfer over a thinner pipe).
	Bandwidth float64
}

// linkProfiles maps each class to its envelope. LinkLocal reproduces the
// flat network exactly: proxyLatency, no loss, full bandwidth — zoned and
// flat clusters share one request path.
var linkProfiles = [...]LinkProfile{
	LinkLocal:    {Latency: proxyLatency, Loss: 0, Bandwidth: 1},
	LinkRegional: {Latency: 12 * time.Millisecond, Loss: 0.005, Bandwidth: 1.25},
	LinkEdge:     {Latency: 40 * time.Millisecond, Loss: 0.02, Bandwidth: 2},
}

// LinkClassBetween resolves the class of the path between two zones (either
// may be empty for flat clusters).
func LinkClassBetween(a, b string) LinkClass {
	if a == b {
		return LinkLocal
	}
	if ZoneIsEdge(a) || ZoneIsEdge(b) {
		return LinkEdge
	}
	return LinkRegional
}

// ProfileFor returns the envelope of a link class.
func ProfileFor(c LinkClass) LinkProfile { return linkProfiles[c] }

// ZoneOf returns the zone a node belongs to, or "" for unzoned nodes.
func (s *State) ZoneOf(node string) string {
	return s.nodes[node].zone
}

// SetZoneLink cuts (up=false) or restores (up=true) a zone's uplink to every
// other zone. Intra-zone traffic is unaffected: an isolated edge site keeps
// serving its own clients.
func (s *State) SetZoneLink(zone string, up bool) {
	if up {
		delete(s.zoneDown, zone)
		return
	}
	s.zoneDown[zone] = true
}

// ZoneLinkCut reports whether a zone's uplink is currently cut.
func (s *State) ZoneLinkCut(zone string) bool { return s.zoneDown[zone] }

// SetNodeLink cuts or restores one node's network link (mass node-kill cuts
// a whole zone's nodes one by one).
func (s *State) SetNodeLink(node string, up bool) {
	if up {
		delete(s.nodeDown, node)
		return
	}
	s.nodeDown[node] = true
}

// ZonesConnected reports whether traffic can flow between two zones.
func (s *State) ZonesConnected(a, b string) bool {
	if a == b || len(s.zoneDown) == 0 {
		return true
	}
	return !s.zoneDown[a] && !s.zoneDown[b]
}

// RouteBetween reports whether a request can travel from one node to
// another: both overlays up, both node links up, and the zone path intact.
func (s *State) RouteBetween(from, to string) bool {
	return s.routeBetween(from, s.nodes[from], to, s.nodes[to])
}

// routeBetween is RouteBetween on the two nodes' entries, for a caller that
// already holds them.
func (s *State) routeBetween(from string, fromNode nodeState, to string, toNode nodeState) bool {
	if len(s.nodeDown) > 0 && (s.nodeDown[from] || s.nodeDown[to]) {
		return false
	}
	if !s.routesUp(fromNode) || !s.routesUp(toNode) {
		return false
	}
	return s.ZonesConnected(fromNode.zone, toNode.zone)
}

// TopologyImpaired reports whether any topology fault is currently applied
// (a zone uplink or node link cut) — the disruption-window probe.
func (s *State) TopologyImpaired() bool {
	return len(s.zoneDown)+len(s.nodeDown) > 0
}
