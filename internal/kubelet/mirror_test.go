package kubelet_test

import (
	"slices"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// The kubelet keeps one pod table, and two things must mirror it: the claims
// of its pod-watch scope (what the API server delivers pod events by) and the
// pods its Snapshot captures (what a fork adopts). The test below holds both
// to the table at every sampled instant of a zoned cluster going through the
// events that move pods between kubelets and in and out of them.

func webDeployment(name string, replicas int64) *spec.Deployment {
	return &spec.Deployment{
		Metadata: spec.ObjectMeta{
			Name: name, Namespace: spec.DefaultNamespace,
			Labels: map[string]string{spec.LabelApp: name},
		},
		Spec: spec.DeploymentSpec{
			Replicas: replicas,
			Selector: spec.LabelSelector{MatchLabels: map[string]string{spec.LabelApp: name}},
			Template: spec.PodTemplate{
				Labels: map[string]string{spec.LabelApp: name},
				Spec: spec.PodSpec{
					Containers: []spec.Container{{
						Name: "web", Image: "registry.local/webapp:1.0",
						Command:          []string{"serve"},
						RequestsMilliCPU: 250, RequestsMemMB: 128,
						LimitsMilliCPU: 500, LimitsMemMB: 256, Port: 8080,
					}},
				},
			},
			MaxSurge: 1,
		},
	}
}

func settledZoned(t *testing.T) *cluster.Snapshot {
	t.Helper()
	c := cluster.New(cluster.Config{Workers: 12, Zones: 3, Seed: 77})
	c.Start()
	if !c.AwaitSettled(30 * time.Second) {
		t.Fatal("cluster did not settle within 30s of simulated time")
	}
	return c.Snapshot()
}

// run drives c for d of simulated time, calling sample every 50 ms.
func run(c *cluster.Cluster, d time.Duration, sample func()) {
	for end := c.Loop.Now() + d; c.Loop.Now() < end; {
		c.Loop.RunUntil(c.Loop.Now() + 50*time.Millisecond)
		sample()
	}
}

// churn is the experiment the test samples: a deployment rolls out with one
// pod write corrupted on its way to the store, a zone is partitioned off,
// another zone's nodes are killed, both heal, and the deployment is scaled
// down.
func churn(t *testing.T, c *cluster.Cluster, in inject.Injection, sample func()) {
	t.Helper()
	j := inject.New(c.Loop)
	c.AttachInjector(j)
	j.Arm(in)
	user := c.Client("kbench")
	if err := user.Create(webDeployment("web", 9)); err != nil {
		t.Fatal(err)
	}
	run(c, 8*time.Second, sample)
	if !j.Report().Fired {
		t.Fatalf("the %s corruption never fired", in.FieldPath)
	}
	c.SetZonePartitioned(c.ZoneName(1), true)
	c.SetZoneNodesDown(c.ZoneName(2), true)
	run(c, 60*time.Second, sample) // past the eviction timeout: pods are deleted and replaced
	c.SetZonePartitioned(c.ZoneName(1), false)
	c.SetZoneNodesDown(c.ZoneName(2), false)
	run(c, 20*time.Second, sample)
	obj, err := user.Get(spec.KindDeployment, spec.DefaultNamespace, "web")
	if err != nil {
		t.Fatal(err)
	}
	scaled := spec.CloneForWriteAs(obj.(*spec.Deployment))
	scaled.Spec.Replicas = 2
	if err := user.Update(scaled); err != nil {
		t.Fatal(err)
	}
	run(c, 10*time.Second, sample)
}

// TestClaimsMirrorTrackedPods: each kubelet's claims, and the pods its
// Snapshot captures, are the UIDs its pod table holds runtimes under — through
// a spec.nodeName corruption (a pod leaves one kubelet for another) and a
// metadata.uid corruption (a status write hands a runtime a pod stored under
// another UID, and the runtime tracked under that UID has to stay the one
// found), a zone partition and a mass node-kill (evictions, replacements), and
// again after the cluster is rewound and restored (adoption).
func TestClaimsMirrorTrackedPods(t *testing.T) {
	snap := settledZoned(t)
	for _, tc := range []struct {
		name string
		in   inject.Injection
	}{
		{"nodeName-corruption", inject.Injection{
			Channel: inject.ChannelStore, Kind: spec.KindPod, Type: inject.SetValue,
			FieldPath: "spec.nodeName", Value: "worker-2", Occurrence: 3,
		}},
		{"uid-corruption", inject.Injection{
			Channel: inject.ChannelStore, Kind: spec.KindPod, Type: inject.BitFlip,
			FieldPath: "metadata.uid", CharIndex: 4, Occurrence: 3,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := snap.Fork(5)
			samples, tracked := 0, 0
			sample := func() {
				samples++
				for name, k := range c.Kubelets {
					uids := k.TrackedUIDs()
					tracked += len(uids)
					if claims := k.ClaimedUIDs(); !slices.Equal(claims, uids) {
						t.Fatalf("at %v, %s tracks pods %v but claims %v", c.Loop.Now(), name, uids, claims)
					}
					if captured := k.SnapshotUIDs(); !slices.Equal(captured, uids) {
						t.Fatalf("at %v, %s tracks pods %v but its snapshot captures %v", c.Loop.Now(), name, uids, captured)
					}
				}
			}
			sample() // right after the restore: the adopted pods
			churn(t, c, tc.in, sample)
			c.Rewind()
			for name, k := range c.Kubelets {
				if claims := k.ClaimedUIDs(); len(claims) != 0 {
					t.Fatalf("rewound %s still claims %v", name, claims)
				}
			}
			snap.Restore(c, 6)
			sample()
			run(c, 15*time.Second, sample)
			if tracked == 0 {
				t.Fatal("no kubelet tracked a pod at any sample")
			}
			t.Logf("%d samples, %d tracked pods seen", samples, tracked)
		})
	}
}
