package workload

import (
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/netsim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

func bootCluster(t *testing.T, seed int64) *cluster.Cluster {
	t.Helper()
	c := cluster.New(cluster.Config{Seed: seed})
	c.Start()
	if !c.AwaitSettled(30 * time.Second) {
		t.Fatal("cluster did not settle")
	}
	return c
}

func readyReplicas(t *testing.T, c *cluster.Cluster, name string) int64 {
	t.Helper()
	obj, err := c.Client("test").Get(spec.KindDeployment, spec.DefaultNamespace, name)
	if err != nil {
		t.Fatalf("Get(%s): %v", name, err)
	}
	return obj.(*spec.Deployment).Status.ReadyReplicas
}

func TestDeployWorkload(t *testing.T) {
	c := bootCluster(t, 1)
	d := NewDriver(c, Deploy)
	d.Setup() // no-op for deploy
	d.Run()
	for i := 0; i < 3; i++ {
		if got := readyReplicas(t, c, AppName(i)); got != 2 {
			t.Fatalf("%s ready = %d, want 2", AppName(i), got)
		}
	}
	// Services must exist with allocated VIPs.
	obj, err := c.Client("test").Get(spec.KindService, spec.DefaultNamespace, AppName(0))
	if err != nil {
		t.Fatal(err)
	}
	if obj.(*spec.Service).Spec.ClusterIP == "" {
		t.Fatal("service has no cluster IP")
	}
}

func TestScaleUpWorkload(t *testing.T) {
	c := bootCluster(t, 2)
	d := NewDriver(c, ScaleUp)
	d.Setup()
	for i := 0; i < 2; i++ {
		if got := readyReplicas(t, c, AppName(i)); got != 2 {
			t.Fatalf("setup: %s ready = %d, want 2", AppName(i), got)
		}
	}
	d.Run()
	for i := 0; i < 2; i++ {
		if got := readyReplicas(t, c, AppName(i)); got != 5 {
			t.Fatalf("%s ready = %d, want 5 after 2→3→4→5", AppName(i), got)
		}
	}
}

func TestFailoverWorkload(t *testing.T) {
	c := bootCluster(t, 3)
	d := NewDriver(c, Failover)
	d.Setup()
	d.Run()
	// A node must carry the failover taint.
	tainted := ""
	for _, no := range c.Client("test").List(spec.KindNode, "") {
		for _, taint := range no.(*spec.Node).Spec.Taints {
			if taint.Key == failoverTaintKey {
				tainted = no.Meta().Name
			}
		}
	}
	if tainted == "" {
		t.Fatal("failover workload did not taint a node")
	}
	// All deployments recovered to full readiness off the tainted node.
	for i := 0; i < failoverDeploys; i++ {
		if got := readyReplicas(t, c, AppName(i)); got != 2 {
			t.Fatalf("%s ready = %d after failover, want 2", AppName(i), got)
		}
	}
	for _, po := range c.Client("test").List(spec.KindPod, spec.DefaultNamespace) {
		pod := po.(*spec.Pod)
		if pod.Active() && pod.Spec.NodeName == tainted {
			t.Fatalf("active pod %s still on tainted node", pod.Metadata.Name)
		}
	}
}

// TestSetupCreatesAndAwaitsItsApplications holds each workload's set-up to
// its own application count: that many Deployments and Services, all ready,
// and a return on the rollout, well inside the kbench wait bound that a wait
// for an application it never created would run into.
func TestSetupCreatesAndAwaitsItsApplications(t *testing.T) {
	want := map[Kind]int{Deploy: 0, ScaleUp: scaleDeployments, Failover: failoverDeploys, Policy: policyDeployments}
	for _, kind := range []Kind{Deploy, ScaleUp, Failover, Policy} {
		t.Run(string(kind), func(t *testing.T) {
			c := bootCluster(t, 5)
			start := c.Loop.Now()
			NewDriver(c, kind).Setup()
			if took := c.Loop.Now() - start; took >= requestTimeout {
				t.Fatalf("Setup took %v, the whole wait bound", took)
			}
			probe := c.Client("test")
			if got := len(probe.List(spec.KindDeployment, spec.DefaultNamespace)); got != want[kind] {
				t.Fatalf("%d deployments, want %d", got, want[kind])
			}
			if got := len(probe.List(spec.KindService, spec.DefaultNamespace)); got != want[kind] {
				t.Fatalf("%d services, want %d", got, want[kind])
			}
			for i := 0; i < want[kind]; i++ {
				if got := readyReplicas(t, c, AppName(i)); got != deployReplicas {
					t.Fatalf("%s ready = %d, want %d", AppName(i), got, deployReplicas)
				}
			}
		})
	}
}

func TestClientMeasuresService(t *testing.T) {
	c := bootCluster(t, 4)
	d := NewDriver(c, ScaleUp)
	d.Setup()
	ns, svc := d.TargetService()
	client := NewClient(c, ns, svc)
	client.Start()
	c.Loop.RunUntil(c.Loop.Now() + ClientDuration + 2*time.Second)
	if !client.Done() {
		t.Fatal("client did not finish its series")
	}
	if len(client.Series) != TotalRequests {
		t.Fatalf("series length = %d, want %d", len(client.Series), TotalRequests)
	}
	ok := 0
	for _, v := range client.Series {
		if v > 0 {
			ok++
		}
	}
	if ok < TotalRequests*9/10 {
		t.Fatalf("only %d/%d requests succeeded against a healthy service", ok, TotalRequests)
	}
	if n := client.TrailingFailures; n != 0 {
		t.Fatalf("trailing failures = %d on a healthy service", n)
	}
}

func TestClientDetectsServiceDeath(t *testing.T) {
	c := bootCluster(t, 5)
	d := NewDriver(c, ScaleUp)
	d.Setup()
	ns, svc := d.TargetService()
	client := NewClient(c, ns, svc)
	client.Start()
	c.Loop.RunUntil(c.Loop.Now() + 10*time.Second)
	// Kill the service mid-run.
	if err := c.Client("test").Delete(spec.KindService, ns, svc); err != nil {
		t.Fatal(err)
	}
	c.Loop.RunUntil(c.Loop.Now() + ClientDuration)
	if client.TrailingFailures < 100 {
		t.Fatalf("trailing failures = %d; service death not visible", client.TrailingFailures)
	}
	if res := client.request(); res.Err != netsim.ErrRefused {
		t.Fatalf("a request after the Service's deletion = %+v, want %q", res, netsim.ErrRefused)
	}
}

func TestAppManifestShape(t *testing.T) {
	d := AppDeployment("webapp-0", 2)
	if d.Spec.Replicas != 2 {
		t.Fatal("replicas wrong")
	}
	if !d.Spec.Selector.Matches(d.Spec.Template.Labels) {
		t.Fatal("selector does not match template labels")
	}
	ctr := d.Spec.Template.Spec.Containers[0]
	if ctr.RequestsMilliCPU <= 0 || ctr.LimitsMilliCPU < ctr.RequestsMilliCPU {
		t.Fatal("paper requires requests and limits on the service app")
	}
	if d.Spec.Template.Spec.VolumeSeed == "" {
		t.Fatal("the web server must read a seed from a volume at startup")
	}
	svc := AppService("webapp-0")
	if svc.Spec.Selector["app"] != "webapp-0" {
		t.Fatal("service selector wrong")
	}
}

// The client writes into the caller's series when it is given one — a
// campaign worker lends the same one to every experiment — and allocates its
// own only at Start, only otherwise.
func TestClientWritesIntoALentSeries(t *testing.T) {
	c := bootCluster(t, 6)
	d := NewDriver(c, Deploy)
	d.Run()
	ns, svc := d.TargetService()

	own := NewClient(c, ns, svc)
	if own.Series != nil {
		t.Fatal("NewClient allocated the series")
	}
	lent := NewClient(c, ns, svc)
	buf := make([]float64, TotalRequests)
	lent.Series = buf
	own.Start()
	lent.Start()
	c.Loop.RunUntil(c.Loop.Now() + ClientDuration + time.Second)
	if !own.Done() || !lent.Done() || len(own.Series) != TotalRequests {
		t.Fatalf("series incomplete: done %v and %v, own length %d", own.Done(), lent.Done(), len(own.Series))
	}
	if &lent.Series[0] != &buf[0] {
		t.Error("the client did not write into the series it was lent")
	}
	if own.Series[TotalRequests-1] == 0 || lent.Series[TotalRequests-1] == 0 || lent.TrailingFailures != 0 {
		t.Error("requests against a ready service failed")
	}
}

// A lent series arrives holding the last experiment's latencies. A client
// stopped after k requests must leave every slot from k on at 0, as a failed
// request's: a stale latency there would read as a request that succeeded.
func TestLentSeriesCarriesNothingOver(t *testing.T) {
	c := bootCluster(t, 6)
	d := NewDriver(c, Deploy)
	d.Run()
	ns, svc := d.TargetService()

	client := NewClient(c, ns, svc)
	client.Series = make([]float64, TotalRequests)
	for i := range client.Series {
		client.Series[i] = 1e6
	}
	client.Start()
	c.Loop.RunUntil(c.Loop.Now() + 100*requestInterval + requestInterval/2)
	client.Stop()
	c.Loop.RunUntil(c.Loop.Now() + ClientDuration)
	if client.sent != 100 {
		t.Fatalf("the client issued %d requests before Stop, want 100", client.sent)
	}
	for i, v := range client.Series {
		if i < client.sent && (v == 0 || v == 1e6) {
			t.Fatalf("slot %d of the issued requests reads %v, want the request's latency", i, v)
		}
		if i >= client.sent && v != 0 {
			t.Fatalf("slot %d, past the %d issued requests, reads %v, want 0", i, client.sent, v)
		}
	}
}

// The client's target Service is the view's entry at every instant — through
// a delete whose watch event is lost and which the view's resync repairs,
// and through a re-create — so a request never reads a Service the view no
// longer holds, nor misses one it does.
func TestClientServiceFollowsItsView(t *testing.T) {
	c := bootCluster(t, 7)
	d := NewDriver(c, ScaleUp)
	d.Setup()
	ns, name := d.TargetService()
	client := NewClient(c, ns, name)
	client.Start()
	admin := c.Client("test")
	check := func(step string, wantService bool) {
		t.Helper()
		for end := c.Loop.Now() + readinessResync + time.Second; c.Loop.Now() < end; {
			c.Loop.RunUntil(c.Loop.Now() + 50*time.Millisecond)
			var got spec.Object
			if client.svc != nil {
				got = client.svc
			}
			if want, _ := client.view.GetByKey(spec.KindService, client.nsKey); got != want {
				t.Fatalf("%s, at %v: client holds %v, its view %v", step, c.Loop.Now(), got, want)
			}
		}
		if (client.svc != nil) != wantService {
			t.Fatalf("%s: client holds a service: %v, want %v", step, client.svc != nil, wantService)
		}
	}
	check("started", true)

	obj, err := admin.Get(spec.KindService, ns, name)
	if err != nil {
		t.Fatal(err)
	}
	dropping := true
	c.Server.SetWatchHook(func(m *apiserver.Message) apiserver.Action {
		if dropping && m.Kind == spec.KindService {
			return apiserver.Drop
		}
		return apiserver.Pass
	})
	if err := admin.Delete(spec.KindService, ns, name); err != nil {
		t.Fatal(err)
	}
	check("delete lost, then repaired by the resync", false)
	if client.view.ResyncRepairs() == 0 {
		t.Fatal("the delete reached the view; the step tests nothing")
	}

	dropping = false
	again := spec.CloneForWriteAs(obj.(*spec.Service))
	again.Metadata.UID, again.Metadata.ResourceVersion = "", 0
	if err := admin.Create(again); err != nil {
		t.Fatal(err)
	}
	check("re-created", true)
}
