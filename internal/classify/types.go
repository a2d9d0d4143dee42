// Package classify implements the paper's two-level failure classification
// (§V-B): orchestrator-level failures (OF) derived from cluster observables
// sampled every 3 seconds, and client-level failures (CF) derived from the
// application client's response-time series via MAE z-scores against a
// golden-run distribution.
package classify

import "fmt"

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

// Observation is what the classifiers read of one experiment window: the
// reductions of its 3-second scrapes and of the client's requests, not the
// raw measurements behind them.
type Observation struct {
	// The scrape envelope: the collector folds each 3-second scrape into it
	// (Observation.scrape) as the scrape lands, and the classifiers read it
	// through FinalReady, FinalEndpoints, Stable, MaxReady and MaxEndpoints.
	// A scrape counts ready replicas across the app ReplicaSets and endpoint
	// addresses across the app Services.
	scrapes        int
	finalReady     int64
	readyBefore    [2]int64 // the two ready counts before finalReady, older first
	maxReady       int64
	finalEndpoints int
	maxEndpoints   int

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

	// Client data: the observation's own copy of the client's latency series
	// (zeros for failures; the one buffer a BufferPool recycles) and its
	// failure counts.
	Series           []float64
	TrailingFailures int
	LeadingFailures  int
	ScatteredErrors  int // non-timeout errors outside leading/trailing runs

	// User-visible API errors (the kbench identity), for Figure 7.
	UserErrors int
}

// scrape folds one scrape's ready replica and endpoint counts into the
// envelope.
func (o *Observation) scrape(ready int64, endpoints int) {
	o.scrapes++
	o.readyBefore = [2]int64{o.readyBefore[1], o.finalReady}
	o.finalReady, o.finalEndpoints = ready, endpoints
	o.maxReady = max(o.maxReady, ready)
	o.maxEndpoints = max(o.maxEndpoints, endpoints)
}

// FinalReady returns the steady-state ready replica count (last scrape).
func (o *Observation) FinalReady() int64 { return o.finalReady }

// FinalEndpoints returns the steady-state endpoint count.
func (o *Observation) FinalEndpoints() int { return o.finalEndpoints }

// Stable reports whether the tail of the scraped series settled (the last
// three scrapes agree) — LeR requires a *stable* lower value.
func (o *Observation) Stable() bool {
	return o.scrapes < 3 || (o.readyBefore[0] == o.finalReady && o.readyBefore[1] == o.finalReady)
}

// MaxReady returns the highest scraped ready replica count.
func (o *Observation) MaxReady() int64 { return o.maxReady }

// MaxEndpoints returns the highest scraped endpoint count.
func (o *Observation) MaxEndpoints() int { return o.maxEndpoints }
