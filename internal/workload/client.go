package workload

import (
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/netsim"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// Client parameters from §V-A: 20 requests/second for 30 seconds.
const (
	RequestRate     = 20
	ClientDuration  = 30 * time.Second
	requestInterval = time.Second / RequestRate
	// TotalRequests is the length of every latency time series.
	TotalRequests = int(ClientDuration / requestInterval)
)

// Client is the application client (AC): it resolves the target service's
// VIP and issues requests from the monitoring node, recording the response
// time series and the failure counts the client-failure classification is
// built on.
//
// The VIP is resolved from a watch-maintained service view (the same
// informer-style pipeline the driver's readiness checks use) instead of a
// per-request server Get: the view's events keep svc, the view's entry for
// the target service, so a request reads a field. Each request still notes
// an access of the service key so the injection framework's activation
// accounting keeps per-request granularity.
type Client struct {
	cl      *cluster.Cluster
	api     *apiserver.Client
	ns      string
	service string
	// view mirrors the services and svc is its entry for the target (nil
	// while it has none); nsKey is the target's view key and svcKey the
	// precomputed store key the per-request access note reports.
	view   *apiserver.Reflector
	svc    *spec.Service
	nsKey  string
	svcKey string

	// Series is the response-time series in milliseconds, slot i for request
	// i; a failed request, or one never issued, reads 0 ("we padded with 0
	// the response times of failed requests"). A caller that runs client
	// after client may set it, before Start, to a TotalRequests-long slice of
	// its own (nothing retains it once the collector copied it); Start zeroes
	// it, or allocates it when it is not that long.
	Series []float64

	// The failures, folded as requests complete: the leading run (the
	// service not yet deployed, as in golden deploy runs), the trailing run
	// (the service unreachable), and the non-timeout errors between the
	// first and the last success (intermittent availability). unsettled
	// holds the non-timeout errors since the last success, which count as
	// scattered only once another success follows.
	LeadingFailures  int
	TrailingFailures int
	ScatteredErrors  int
	unsettled        int

	ticker sim.Timer
	sent   int
}

// NewClient builds an application client for one service.
func NewClient(cl *cluster.Cluster, namespace, service string) *Client {
	return &Client{
		cl:      cl,
		api:     cl.Client("appclient"),
		ns:      namespace,
		service: service,
		nsKey:   namespace + "/" + service,
		svcKey:  spec.Key(spec.KindService, namespace, service),
	}
}

// Start begins issuing requests on the simulation loop; it stops by itself
// after TotalRequests.
func (c *Client) Start() {
	if len(c.Series) == TotalRequests {
		clear(c.Series)
	} else {
		c.Series = make([]float64, TotalRequests)
	}
	c.view = apiserver.NewReflector(c.cl.Loop, c.api, readinessResync, c.observe, spec.KindService)
	c.view.Start()
	c.svc = nil
	if obj, ok := c.view.GetByKey(spec.KindService, c.nsKey); ok {
		c.svc = obj.(*spec.Service)
	}
	c.ticker = c.cl.Loop.Every(requestInterval, c.issue)
}

// Stop cancels the client early.
func (c *Client) Stop() {
	c.ticker.Stop()
	if c.view != nil {
		c.view.Stop()
	}
}

// Done reports whether the full request series was issued.
func (c *Client) Done() bool { return c.sent >= TotalRequests }

func (c *Client) issue() {
	if c.sent >= TotalRequests {
		c.Stop()
		return
	}
	c.record(c.sent, c.request())
	c.sent++
}

// record writes request i's outcome into the series and the failure counts.
// A failed request's slot keeps the 0 Start left there.
func (c *Client) record(i int, res netsim.RequestResult) {
	if res.Failed() {
		c.TrailingFailures++
		switch {
		case c.LeadingFailures == i: // every request before i failed
			c.LeadingFailures++
		case res.Err != netsim.ErrTimeout:
			c.unsettled++
		}
		return
	}
	c.Series[i] = float64(res.Latency) / float64(time.Millisecond)
	c.TrailingFailures = 0
	c.ScatteredErrors += c.unsettled
	c.unsettled = 0
}

// observe follows the view's events — live deliveries and resync repairs
// alike — for the target service, so svc is always what the view holds
// under nsKey.
func (c *Client) observe(ev apiserver.WatchEvent) {
	if ev.Object.Meta().NamespacedName() != c.nsKey {
		return
	}
	if ev.Type == apiserver.Deleted {
		c.svc = nil
		return
	}
	c.svc = ev.Object.(*spec.Service)
}

func (c *Client) request() netsim.RequestResult {
	// The VIP comes from the watch-maintained view: the sealed service object
	// its events keep, no server round-trip per request. NoteAccess counts one
	// access of the service per request, as a server Get would.
	if c.svc == nil {
		return netsim.RequestResult{Err: netsim.ErrRefused}
	}
	c.api.NoteAccess(c.svcKey)
	vip := c.svc.Spec.ClusterIP
	if vip == "" {
		return netsim.RequestResult{Err: netsim.ErrRefused}
	}
	return c.cl.Net.Request(c.cl.MonitoringNode(), vip, appPort)
}
