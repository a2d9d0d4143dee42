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

// TestPrimedEncodingsMatchMarshal is the guard object entries stand on: every
// object entry a store holds — the sealed object an untampered write persisted
// — must make on demand exactly the bytes the write path would have stored: as
// many as the size the quota counted, decoding to the object at the
// resourceVersion its writer saw, which is below the revision the entry is
// stored at, and, stamped with that revision, re-encoding to a fresh Marshal
// of the object. It is held every 100 ms of simulated time through the
// heaviest status-write traffic a campaign produces, a ReplicaSet whose
// template label was corrupted on its way to the store creating pods until
// the quota stops it, on a freshly booted cluster and on a fork of its
// snapshot: a consumer scribbling on a stored object, or a size that is not
// its encoding's, shows up as an entry whose bytes differ.
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
		t.Run(run.name, func(t *testing.T) { holdObjectEntries(t, run.c) })
	}
}

func holdObjectEntries(t *testing.T, c *cluster.Cluster) {
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

	checked := make(map[spec.Object]bool) // objects already held to the rule
	for end := c.Loop.Now() + 45*time.Second; c.Loop.Now() < end; {
		c.Loop.RunUntil(c.Loop.Now() + 100*time.Millisecond)
		for _, kv := range c.Backend.Replica(0).List("/registry/") {
			obj := kv.Object()
			if obj == nil || checked[obj] {
				continue
			}
			checked[obj] = true
			if !obj.Meta().Sealed() || obj.Meta().ResourceVersion != kv.Revision {
				t.Fatalf("at %v, %s: the stored object is sealed=%v at rv %d, stored at revision %d",
					c.Loop.Now(), kv.Key, obj.Meta().Sealed(), obj.Meta().ResourceVersion, kv.Revision)
			}
			b := kv.Bytes()
			if int64(len(b)) != kv.Size() {
				t.Fatalf("at %v, %s: the entry counts %d bytes, its bytes are %d", c.Loop.Now(), kv.Key, kv.Size(), len(b))
			}
			wire := spec.New(kv.Kind)
			if err := codec.Unmarshal(b, wire); err != nil {
				t.Fatalf("at %v, %s: the on-demand bytes do not decode: %v", c.Loop.Now(), kv.Key, err)
			}
			if rv := wire.Meta().ResourceVersion; rv >= kv.Revision {
				t.Fatalf("at %v, %s: the bytes carry rv %d, not one its writer saw below revision %d", c.Loop.Now(), kv.Key, rv, kv.Revision)
			}
			wire.Meta().ResourceVersion = kv.Revision
			if got, want := marshalOf(t, wire), marshalOf(t, obj); !bytes.Equal(got, want) {
				t.Fatalf("at %v, %s (rv %d): the on-demand bytes, stamped, differ from a fresh Marshal of the object",
					c.Loop.Now(), kv.Key, kv.Revision)
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
	t.Logf("%d stored objects held to the rule, %d pods at the end", len(checked), pods)
}

func marshalOf(t *testing.T, obj spec.Object) []byte {
	t.Helper()
	b, err := codec.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}
	return b
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
