package apiserver_test

import (
	"bytes"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// TestPrimedEncodingsMatchMarshal is the guard the status splice stands on:
// every decode-cache entry that records a status offset for the array its
// store holds must rebuild a fresh codec.Marshal of its object from that
// array — the prefix with the object's revision patched in
// (codec.AppendPrefixWithRV, what the splice copies), then the stored status
// record — and the offset must be where a scan of the array finds that
// record. It is held every 100 ms of simulated time through the heaviest
// status-write traffic a campaign produces, a ReplicaSet whose template label
// was corrupted on its way to the store creating pods until the quota stops
// it, on a freshly booted cluster and on a fork of its snapshot: a stale
// prefix, a missed invalidation or a consumer scribbling on a stored array
// shows up as an entry whose encoding differs.
func TestPrimedEncodingsMatchMarshal(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 7200})
	c.Start()
	if !c.AwaitSettled(30 * time.Second) {
		t.Fatal("cluster did not settle within 30s of simulated time")
	}
	snap := c.Snapshot()
	for _, run := range []struct {
		name string
		c    *cluster.Cluster
	}{{"fresh", c}, {"fork", snap.Fork(7201)}} {
		t.Run(run.name, func(t *testing.T) { holdPrimedEncodings(t, run.c) })
	}
}

func holdPrimedEncodings(t *testing.T, c *cluster.Cluster) {
	j := inject.New(c.Loop)
	c.AttachInjector(j)
	j.Arm(inject.Injection{
		Channel: inject.ChannelStore, Kind: spec.KindReplicaSet, Type: inject.SetValue,
		FieldPath: "spec.template.labels[app]", Value: "mislabeled", Occurrence: 2,
	})
	user := c.Client("kbench")
	if err := user.Create(stormDeployment("web", 3)); err != nil {
		t.Fatal(err)
	}

	checked := make(map[*byte]bool) // arrays already held to the rule
	for end := c.Loop.Now() + 45*time.Second; c.Loop.Now() < end; {
		c.Loop.RunUntil(c.Loop.Now() + 100*time.Millisecond)
		for _, key := range c.Server.DecodeCacheKeys() {
			obj, w, off, ok := c.Server.PrimedEncoding(key)
			if !ok || checked[&w[0]] {
				continue
			}
			checked[&w[0]] = true
			if scanned, ok := codec.StatusOffset(w); !ok || scanned != off {
				t.Fatalf("at %v, %s: entry's status offset %d, a scan of its array says %d (ok=%v)", c.Loop.Now(), key, off, scanned, ok)
			}
			prefix, ok := codec.AppendPrefixWithRV(nil, w[:off], obj.Meta().ResourceVersion)
			want, err := codec.Marshal(obj)
			if !ok || err != nil || !bytes.Equal(append(prefix, w[off:]...), want) {
				t.Fatalf("at %v, %s (rv %d): the patched prefix and stored status record differ from a fresh Marshal",
					c.Loop.Now(), key, obj.Meta().ResourceVersion)
			}
		}
	}
	if !j.Report().Fired {
		t.Fatal("the template-label corruption never fired")
	}
	pods := len(user.List(spec.KindPod, spec.DefaultNamespace))
	if pods < 100 {
		t.Fatalf("only %d pods after the storm; the window is not the storm it should be", pods)
	}
	t.Logf("%d primed arrays held to the rule, %d pods at the end", len(checked), pods)
}

// stormDeployment is an application deployment whose pods fit the cluster.
func stormDeployment(name string, replicas int64) *spec.Deployment {
	labels := map[string]string{spec.LabelApp: name}
	return &spec.Deployment{
		Metadata: spec.ObjectMeta{Name: name, Namespace: spec.DefaultNamespace, Labels: labels},
		Spec: spec.DeploymentSpec{
			Replicas: replicas,
			Selector: spec.LabelSelector{MatchLabels: labels},
			Template: spec.PodTemplate{
				Labels: labels,
				Spec: spec.PodSpec{Containers: []spec.Container{{
					Name: "web", Image: "registry.local/webapp:1.0", Command: []string{"serve"},
					RequestsMilliCPU: 250, RequestsMemMB: 128, LimitsMilliCPU: 500, LimitsMemMB: 256, Port: 8080,
				}}},
			},
			MaxSurge: 1,
		},
	}
}
