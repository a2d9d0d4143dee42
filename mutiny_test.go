package mutiny_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	mutiny "github.com/mutiny-sim/mutiny"
)

// The public API must carry a complete experiment end to end without
// reaching into internal packages.
func TestPublicAPIExperiment(t *testing.T) {
	runner := mutiny.NewRunner()
	runner.GoldenRuns = 10
	res := runner.Run(mutiny.Spec{
		Workload: mutiny.WorkloadScaleUp,
		Seed:     1,
		Injection: &mutiny.Injection{
			Channel:    mutiny.ChannelStore,
			Kind:       mutiny.KindDeployment,
			FieldPath:  "spec.replicas",
			Type:       mutiny.SetValue,
			Value:      int64(0),
			Occurrence: 2,
		},
	})
	if !res.Report.Fired {
		t.Fatal("injection did not fire")
	}
	if res.OF == mutiny.OFNone {
		t.Fatalf("OF = %s; zeroing replicas must be visible", res.OF)
	}
}

func TestPublicAPICluster(t *testing.T) {
	cl := mutiny.NewCluster(mutiny.ClusterConfig{Seed: 9})
	cl.Start()
	if !cl.AwaitSettled(30 * time.Second) {
		t.Fatal("cluster did not settle")
	}
	driver := mutiny.NewDriver(cl, mutiny.WorkloadDeploy)
	driver.Setup()
	driver.Run()
	ns, name := driver.TargetService()
	obj, err := cl.Client("user").Get(mutiny.KindService, ns, name)
	if err != nil {
		t.Fatal(err)
	}
	svc, ok := obj.(*mutiny.Service)
	if !ok || svc.Spec.ClusterIP == "" {
		t.Fatalf("service not usable through public types: %T", obj)
	}
	if res := cl.Net.Request(cl.MonitoringNode(), svc.Spec.ClusterIP, 80); res.Failed() {
		t.Fatalf("request failed: %s", res.Err)
	}
	cl.Stop()
}

// NewInjector returns an injector attached to the whole cluster: on a
// three-replica control plane a timed apiserver crash fires and heals.
func TestPublicAPIInjectorReachesThePlatform(t *testing.T) {
	cl := mutiny.NewCluster(mutiny.ClusterConfig{Seed: 3, ControlPlaneReplicas: 3})
	cl.Start()
	if !cl.AwaitSettled(30 * time.Second) {
		t.Fatal("cluster did not settle")
	}
	injector := mutiny.NewInjector(cl)
	injector.Arm(mutiny.Injection{Type: mutiny.FaultAPIServerCrash, After: time.Second, Heal: 5 * time.Second})
	cl.Loop.RunUntil(cl.Loop.Now() + 10*time.Second)
	if rep := injector.Report(); !rep.Fired || !rep.Healed {
		t.Fatalf("apiserver crash did not fire and heal: %+v", rep)
	}
	cl.Stop()
}

func TestPublicAPICampaignSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign smoke test is slow")
	}
	out := mutiny.RunCampaign(mutiny.CampaignConfig{
		Workloads:       []mutiny.WorkloadKind{mutiny.WorkloadDeploy},
		GoldenRuns:      10,
		SampleStride:    100,
		SkipRefinement:  true,
		SkipPropagation: true,
	})
	if out.Main.Total() == 0 {
		t.Fatal("campaign ran no experiments")
	}
	var buf bytes.Buffer
	mutiny.RenderTable4(&buf, out.Main)
	mutiny.RenderTable5(&buf, out.Main)
	mutiny.RenderFigure6(&buf, out.Main)
	mutiny.RenderFigure7(&buf, out.Main)
	mutiny.RenderFindings(&buf, out.Main)
	for _, want := range []string{"Table IV", "Table V", "Figure 6", "Figure 7", "F1:", "F2:", "F4:"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("rendered output missing %q", want)
		}
	}
}

func TestRenderStaticTables(t *testing.T) {
	var buf bytes.Buffer
	mutiny.RenderTable1(&buf)
	if !strings.Contains(buf.String(), "81 real-world") {
		t.Fatal("Table I missing dataset header")
	}
	buf.Reset()
	mutiny.RenderTable7(&buf)
	out := buf.String()
	if !strings.Contains(out, "paper: 54/81") {
		t.Fatal("Table VII missing the incident coverage summary")
	}
	if !strings.Contains(out, "*Wrong label") {
		t.Fatal("Table VII missing replicable markers")
	}
}

func TestWorkloadsList(t *testing.T) {
	wls := mutiny.Workloads()
	if len(wls) != 3 || wls[0] != mutiny.WorkloadDeploy || wls[2] != mutiny.WorkloadFailover {
		t.Fatalf("Workloads() = %v", wls)
	}
}
