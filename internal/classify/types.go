// Package classify implements the paper's two-level failure classification
// (§V-B): orchestrator-level failures (OF) derived from cluster observables
// sampled every 3 seconds, and client-level failures (CF) derived from the
// application client's response-time series via MAE z-scores against a
// golden-run distribution.
package classify

import (
	"fmt"
	"time"
)

// OF is an orchestrator-level failure category (Table I(c), in increasing
// severity order).
type OF int

// Orchestrator-level failure categories.
const (
	OFNone OF = iota + 1 // system recovered, no consequences
	OFTim                // timing failure: creations/restarts much slower
	OFLeR                // fewer resources than desired at steady state
	OFMoR                // more resources than needed (worse: cost+exhaustion)
	OFNet                // right resources, wrong networking
	OFSta                // cluster can't react to changes; running apps fine
	OFOut                // running services compromised cluster-wide
)

// String returns the paper's abbreviation.
func (o OF) String() string {
	switch o {
	case OFNone:
		return "No"
	case OFTim:
		return "Tim"
	case OFLeR:
		return "LeR"
	case OFMoR:
		return "MoR"
	case OFNet:
		return "Net"
	case OFSta:
		return "Sta"
	case OFOut:
		return "Out"
	default:
		return fmt.Sprintf("OF(%d)", int(o))
	}
}

// OFs lists the categories in severity order.
func OFs() []OF { return []OF{OFNone, OFTim, OFLeR, OFMoR, OFNet, OFSta, OFOut} }

// CF is a client-level failure category (Table II).
type CF int

// Client-level failure categories.
const (
	CFNSI CF = iota + 1 // no significant impact
	CFHRT               // higher response times (z > 2)
	CFIA                // intermittent availability (errors not due to timeouts)
	CFSU                // service unreachable from some instant on
)

// String returns the paper's abbreviation.
func (c CF) String() string {
	switch c {
	case CFNSI:
		return "NSI"
	case CFHRT:
		return "HRT"
	case CFIA:
		return "IA"
	case CFSU:
		return "SU"
	default:
		return fmt.Sprintf("CF(%d)", int(c))
	}
}

// CFs lists the categories in severity order.
func CFs() []CF { return []CF{CFNSI, CFHRT, CFIA, CFSU} }

// Sample is one 3-second snapshot of the cluster observables.
type Sample struct {
	At time.Duration
	// ReadyReplicas sums ready replicas across app ReplicaSets.
	ReadyReplicas int64
	// Endpoints sums endpoint addresses across app Services.
	Endpoints int
}

// Observation is everything measured during one experiment window.
type Observation struct {
	Samples []Sample

	// Cumulative counters over the window.
	PodsCreated   int  // cluster-wide pod creations
	AppPodRestart bool // any service pod restarted

	// kbench-style startup statistics (milliseconds).
	WorstStartupMS   float64
	LastCreationMS   float64
	SchedulerRestart int

	// HA control-plane metrics, accumulated at the scrape period: simulated
	// milliseconds of the window during which the control plane could not
	// react (failover gap: no leading manager or no running scheduler), and
	// during which some live store replica lagged the most advanced one (an
	// apiserver serving stale reads). Both stay zero on single-apiserver
	// clusters in nominal runs.
	FailoverMillis  float64
	StaleReadMillis float64

	// Admission metrics, meaningful only when the cluster runs a webhook
	// chain: simulated milliseconds of the window during which a fail-closed
	// hook was unreachable (writes it selects were being rejected — the
	// write-availability outage), and the number of policy-violating objects
	// admitted past a skipped hook during the window (the enforcement-
	// integrity loss).
	AdmissionOutageMillis float64
	PolicyViolations      int

	// Topology metrics, meaningful only on zoned clusters: simulated
	// milliseconds of the window during which a topology fault held a zone
	// uplink or node link cut (the disruption window), and milliseconds after
	// the links were restored before the cluster re-converged — links up,
	// kubelets heartbeating, every node Ready and untainted (the recovery
	// tail the arXiv:1901.04946-style failover tables report).
	TopologyDisruptedMillis float64
	TopologyRecoveryMillis  float64

	// End-of-window cluster health probes.
	ControlPlaneResponsive bool
	StoreQuotaExceeded     bool
	NetworkPodsFailing     bool
	DNSHealthy             bool
	PrometheusReachable    bool

	// Client data.
	Series           []float64 // latency series, zeros for failures
	TrailingFailures int
	LeadingFailures  int
	ScatteredErrors  int // non-timeout errors outside leading/trailing runs

	// User-visible API errors (the kbench identity), for Figure 7.
	UserErrors int
}

// FinalReady returns the steady-state ready replica count (last sample).
func (o *Observation) FinalReady() int64 {
	if len(o.Samples) == 0 {
		return 0
	}
	return o.Samples[len(o.Samples)-1].ReadyReplicas
}

// FinalEndpoints returns the steady-state endpoint count.
func (o *Observation) FinalEndpoints() int {
	if len(o.Samples) == 0 {
		return 0
	}
	return o.Samples[len(o.Samples)-1].Endpoints
}

// Stable reports whether the tail of the sampled series settled (the last
// three samples agree) — LeR requires a *stable* lower value.
func (o *Observation) Stable() bool {
	n := len(o.Samples)
	if n < 3 {
		return true
	}
	a, b, c := o.Samples[n-3], o.Samples[n-2], o.Samples[n-1]
	return a.ReadyReplicas == c.ReadyReplicas && b.ReadyReplicas == c.ReadyReplicas
}

// MaxReady returns the highest sampled ready replica count.
func (o *Observation) MaxReady() int64 {
	var max int64
	for _, s := range o.Samples {
		if s.ReadyReplicas > max {
			max = s.ReadyReplicas
		}
	}
	return max
}

// MaxEndpoints returns the highest sampled endpoint count.
func (o *Observation) MaxEndpoints() int {
	max := 0
	for _, s := range o.Samples {
		if s.Endpoints > max {
			max = s.Endpoints
		}
	}
	return max
}
