package workload

import (
	"bytes"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// TestOnDemandBytesMatchWrittenBytes holds the bytes the store makes on
// demand to the bytes a write crossing the apiserver→store channel shows its
// hooks. Each workload runs twice from one seed: bare, where no hook asks for
// a write's bytes and the store keeps the written objects, and with a
// store-channel hook on every server that asks for every write's bytes. The
// three-replica run also isolates a replica and heals it, and loses one and
// restores it by state transfer. Both runs must end at the same revision and
// size; every live key's on-demand bytes in the bare run must be the last
// bytes the hook saw for it; and the size must be those bytes' lengths plus
// the keys'. Bytes or sizes taken at the committed resourceVersion instead of
// the writer's fail the last two checks: a create's bytes carry no RV at all.
func TestOnDemandBytesMatchWrittenBytes(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		cfg  cluster.Config
	}{
		{Deploy, cluster.Config{Seed: 11}},
		{Policy, cluster.Config{Seed: 11, ControlPlaneReplicas: 3, AdmissionHooks: 3}},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			run := func(seen map[string][]byte) *cluster.Cluster {
				c := cluster.New(tc.cfg)
				if seen != nil {
					hook := func(m *apiserver.Message) apiserver.Action {
						if b := m.Encoded(); b != nil {
							seen[spec.Key(m.Kind, m.Namespace, m.Name)] = bytes.Clone(b)
						}
						return apiserver.Pass
					}
					for _, srv := range c.Servers {
						srv.SetStoreWriteHook(hook)
					}
				}
				c.Start()
				if !c.AwaitSettled(30 * time.Second) {
					t.Fatal("cluster did not settle within 30s of simulated time")
				}
				d := NewDriver(c, tc.kind)
				d.Setup()
				d.Run()
				after := func(d time.Duration) { c.Loop.RunUntil(c.Loop.Now() + d) }
				if tc.cfg.ControlPlaneReplicas > 1 {
					c.SetMasterIsolated(2, true)
					after(5 * time.Second)
					c.SetMasterIsolated(2, false)
					after(2 * time.Second)
					c.SetStoreReplicaLost(1, true)
					after(3 * time.Second)
					c.SetStoreReplicaLost(1, false)
				}
				after(10 * time.Second)
				return c
			}
			bare := run(nil)
			seen := make(map[string][]byte)
			hooked := run(seen)
			if bare.Backend.Revision() != hooked.Backend.Revision() || bare.Backend.SizeBytes() != hooked.Backend.SizeBytes() {
				t.Fatalf("bare run at revision %d, %d bytes; the run whose hook asked for every write's bytes at %d, %d bytes",
					bare.Backend.Revision(), bare.Backend.SizeBytes(), hooked.Backend.Revision(), hooked.Backend.SizeBytes())
			}
			var size int64
			objects := 0
			kvs := bare.Backend.Replica(0).List("/registry/")
			for _, kv := range kvs {
				if kv.Object() != nil {
					objects++
				}
				b := kv.Bytes()
				if want, ok := seen[kv.Key]; !ok || !bytes.Equal(b, want) {
					t.Errorf("%s at revision %d: the store makes %d bytes %x, the hook last saw %d bytes %x (seen %v)",
						kv.Key, kv.Revision, len(b), b, len(want), want, ok)
				}
				size += int64(len(kv.Key) + len(b))
			}
			if got := bare.Backend.SizeBytes(); got != size {
				t.Errorf("the store counts %d bytes, its keys and bytes are %d", got, size)
			}
			if objects == 0 {
				t.Fatal("the bare run stored no object: nothing was made on demand")
			}
			t.Logf("%d live keys, %d of them stored as objects, %d bytes, revision %d", len(kvs), objects, size, bare.Backend.Revision())
		})
	}
}
