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
	if len(client.Records) != TotalRequests {
		t.Fatalf("records = %d, want %d", len(client.Records), TotalRequests)
	}
	series := client.Series()
	ok := 0
	for _, v := range series {
		if v > 0 {
			ok++
		}
	}
	if ok < TotalRequests*9/10 {
		t.Fatalf("only %d/%d requests succeeded against a healthy service", ok, TotalRequests)
	}
	if n := client.TrailingFailures(); n != 0 {
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
	if client.TrailingFailures() < 100 {
		t.Fatalf("trailing failures = %d; service death not visible", client.TrailingFailures())
	}
	errs := client.ErrorCounts()
	if errs[netsim.ErrRefused] == 0 {
		t.Fatalf("error counts = %v, want refused errors", errs)
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

// The client logs into the caller's record buffer when it is given one — a
// campaign worker lends the same one to every experiment — and allocates its
// own only at Start, only otherwise.
func TestClientLogsIntoSuppliedRecords(t *testing.T) {
	c := bootCluster(t, 6)
	d := NewDriver(c, Deploy)
	d.Run()
	ns, svc := d.TargetService()

	own := NewClient(c, ns, svc)
	if own.Records != nil {
		t.Fatal("NewClient allocated the record buffer")
	}
	lent := NewClient(c, ns, svc)
	buf := make([]RequestRecord, 0, TotalRequests)
	lent.Records = buf
	own.Start()
	lent.Start()
	c.Loop.RunUntil(c.Loop.Now() + ClientDuration + time.Second)
	if !own.Done() || !lent.Done() || len(own.Records) != TotalRequests || len(lent.Records) != TotalRequests {
		t.Fatalf("series incomplete: %d and %d records", len(own.Records), len(lent.Records))
	}
	if &lent.Records[0] != &buf[:1][0] {
		t.Error("the client did not log into the buffer it was lent")
	}
	if own.Series()[TotalRequests-1] == 0 || lent.TrailingFailures() != 0 {
		t.Error("requests against a ready service failed")
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
