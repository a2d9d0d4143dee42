package classify

import (
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/netsim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// samplePeriod mirrors the paper's 3-second metric scrape.
const samplePeriod = 3 * time.Second

// Collector gathers an Observation over one experiment window, playing the
// role of Prometheus + kube-state-metrics + the kbench statistics.
type Collector struct {
	cl    *cluster.Cluster
	admin *apiserver.Client

	windowStart  time.Duration
	lastSampleAt time.Duration
	obs          Observation

	podCreatedAt map[string]time.Duration // uid → creation observed
	podReadyAt   map[string]bool

	// violationsAtStart anchors the window's PolicyViolations delta: the
	// chain's counter is cumulative (and snapshot-restored on forks), the
	// observation reports only what this window admitted.
	violationsAtStart int

	// sawTopologyFault latches once a scrape observes the network impaired:
	// from then on, impairment-free scrape intervals count toward the
	// recovery tail until the cluster re-converges. Zoneless campaigns never
	// set it, so the (list-backed) convergence probe never runs for them.
	sawTopologyFault bool

	pool *BufferPool

	cancels []func()
	ticker  interface{ Stop() bool }
}

// NewCollector attaches a collector to the cluster; the window starts at
// Start.
func NewCollector(cl *cluster.Cluster) *Collector {
	return &Collector{
		cl:           cl,
		admin:        cl.Client("monitoring"),
		podCreatedAt: make(map[string]time.Duration),
		podReadyAt:   make(map[string]bool),
	}
}

// UsePool makes the collector grow its series buffers out of the given pool
// instead of fresh allocations. The resulting Observation then owns pooled
// memory: release it back via pool.Release once classification is done and
// it provably does not escape. Call before Start.
func (c *Collector) UsePool(p *BufferPool) { c.pool = p }

// Start opens the measurement window.
func (c *Collector) Start() {
	c.windowStart = c.cl.Loop.Now()
	c.lastSampleAt = c.windowStart
	c.violationsAtStart = c.cl.AdmissionViolations()
	c.obs.Samples = c.pool.getSamples()
	c.cancels = append(c.cancels, c.admin.Watch(spec.KindPod, c.onPod))
	c.ticker = c.cl.Loop.Every(samplePeriod, c.sample)
	c.sample()
}

func (c *Collector) onPod(ev apiserver.WatchEvent) {
	pod := ev.Object.(*spec.Pod)
	uid := pod.Metadata.UID
	switch ev.Type {
	case apiserver.Added:
		if _, seen := c.podCreatedAt[uid]; !seen {
			c.podCreatedAt[uid] = c.cl.Loop.Now()
			c.obs.PodsCreated++
			rel := float64(c.cl.Loop.Now()-c.windowStart) / float64(time.Millisecond)
			if rel > c.obs.LastCreationMS {
				c.obs.LastCreationMS = rel
			}
		}
	case apiserver.Modified:
		if pod.Metadata.Namespace != spec.DefaultNamespace {
			return
		}
		if pod.Status.Ready && !c.podReadyAt[uid] {
			c.podReadyAt[uid] = true
			if created, ok := c.podCreatedAt[uid]; ok {
				startup := float64(c.cl.Loop.Now()-created) / float64(time.Millisecond)
				if startup > c.obs.WorstStartupMS {
					c.obs.WorstStartupMS = startup
				}
			}
		}
		if pod.Status.RestartCount > 0 {
			c.obs.AppPodRestart = true
		}
	}
}

func (c *Collector) sample() {
	// HA windows: charge the interval since the last scrape to the failover
	// gap when the control plane cannot act right now, and to the stale-read
	// window when a live store replica is serving a lagging revision. The
	// scrape granularity mirrors the paper's 3 s Prometheus resolution.
	now := c.cl.Loop.Now()
	if dt := float64(now-c.lastSampleAt) / float64(time.Millisecond); dt > 0 {
		if !c.cl.ControlPlaneResponsive() {
			c.obs.FailoverMillis += dt
		}
		if c.cl.StoreLagMax() > 0 {
			c.obs.StaleReadMillis += dt
		}
		if c.cl.AdmissionDegraded() {
			c.obs.AdmissionOutageMillis += dt
		}
		if c.cl.TopologyDegraded() {
			c.obs.TopologyDisruptedMillis += dt
			c.sawTopologyFault = true
		} else if c.sawTopologyFault && !c.cl.TopologyConverged() {
			c.obs.TopologyRecoveryMillis += dt
		}
	}
	c.lastSampleAt = now

	// View reads: the scrape only tallies status fields.
	s := Sample{At: now - c.windowStart}
	for _, ro := range c.admin.List(spec.KindReplicaSet, spec.DefaultNamespace) {
		s.ReadyReplicas += ro.(*spec.ReplicaSet).Status.ReadyReplicas
	}
	for _, eo := range c.admin.List(spec.KindEndpoints, spec.DefaultNamespace) {
		s.Endpoints += eo.(*spec.Endpoints).Count()
	}
	c.obs.Samples = append(c.obs.Samples, s)
}

// Finish closes the window, runs the end-of-window health probes, folds in
// the client's data, and returns the Observation — a copy of its own, not a
// pointer into the collector: a golden observation lives as long as its
// baseline, and must not keep the collector, and through it the cluster and
// everything a later experiment left in it, alive that long.
func (c *Collector) Finish(client *workload.Client) *Observation {
	c.sample()
	c.ticker.Stop()
	for _, cancel := range c.cancels {
		cancel()
	}

	c.obs.ControlPlaneResponsive = c.cl.ControlPlaneResponsive()
	c.obs.StoreQuotaExceeded = !c.cl.ControlPlaneResponsive() && c.cl.Backend.QuotaExceeded()
	c.obs.NetworkPodsFailing = c.cl.Net.NetworkPodsFailing()
	c.obs.DNSHealthy = c.cl.Net.DNSHealthy()
	c.obs.PrometheusReachable = c.probePrometheus()
	c.obs.SchedulerRestart = c.cl.Scheduler.Restarts()
	c.obs.UserErrors = c.cl.Server.Audit().ErrorsBy(workload.UserIdentity)
	c.obs.PolicyViolations = c.cl.AdmissionViolations() - c.violationsAtStart

	if client != nil {
		c.obs.Series = client.Series()
		c.obs.TrailingFailures = client.TrailingFailures()
		c.obs.LeadingFailures, c.obs.ScatteredErrors = analyzeErrors(client.Records)
	}
	obs := c.obs
	return &obs
}

func (c *Collector) probePrometheus() bool {
	obj, err := c.admin.Get(spec.KindService, spec.SystemNamespace, "prometheus")
	if err != nil {
		return false
	}
	vip := obj.(*spec.Service).Spec.ClusterIP
	for i := 0; i < 3; i++ {
		if !c.cl.Net.Request(c.cl.MonitoringNode(), vip, 9090).Failed() {
			return true
		}
	}
	return false
}

// analyzeErrors splits the client's failures into a leading run (service
// not yet deployed — present in golden deploy runs too), a trailing run
// (service unreachable), and scattered non-timeout errors in between
// (intermittent availability).
func analyzeErrors(records []workload.RequestRecord) (leading, scattered int) {
	n := len(records)
	i := 0
	for i < n && records[i].Err != "" {
		i++
		leading++
	}
	j := n - 1
	for j >= i && records[j].Err != "" {
		j--
	}
	for k := i; k <= j; k++ {
		if records[k].Err != "" && records[k].Err != netsim.ErrTimeout {
			scattered++
		}
	}
	return leading, scattered
}
