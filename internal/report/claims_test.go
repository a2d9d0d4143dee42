package report

import (
	"maps"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/campaign"
	"github.com/mutiny-sim/mutiny/internal/classify"
	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// The paper's claims beyond its tables: the two §V-C1 ablations, the two
// §VI-B mitigations, and the order of Figure 5's z-scores. Like the findings
// oracle, a claim that fails is a finding to explain, not a test to loosen.

// claimRunner runs a claim's experiments in the replay regime against a
// 20-run golden baseline.
func claimRunner(cfg cluster.Config) *campaign.Runner {
	r := campaign.NewRunner()
	r.GoldenRuns = 20
	r.ClusterConfig = cfg
	return r
}

// TestReplicatedControlPlaneChangesNothing is the §V-C1 ablation: repeating
// critical-field injections against a three-replica control plane shows "no significant difference", because the values are corrupted
// before consensus runs — the replicas agree on whatever they are given.
func TestReplicatedControlPlaneChangesNothing(t *testing.T) {
	injections := []inject.Injection{
		{Channel: inject.ChannelStore, Kind: spec.KindReplicaSet,
			FieldPath: "spec.template.labels[app]", Type: inject.SetValue, Value: "mislabeled", Occurrence: 2},
		{Channel: inject.ChannelStore, Kind: spec.KindDeployment,
			FieldPath: "spec.replicas", Type: inject.BitFlip, Bit: 4, Occurrence: 1},
		{Channel: inject.ChannelStore, Kind: spec.KindPod,
			FieldPath: "metadata.labels[app]", Type: inject.SetValue, Value: "", Occurrence: 2},
		{Channel: inject.ChannelStore, Kind: spec.KindService,
			FieldPath: "spec.ports[0].targetPort", Type: inject.BitFlip, Bit: 4, Occurrence: 1},
		{Channel: inject.ChannelStore, Kind: spec.KindDeployment,
			Type: inject.DropMessage, Occurrence: 1},
	}
	run := func(replicas int) map[classify.OF]int {
		r := claimRunner(cluster.Config{ControlPlaneReplicas: replicas})
		counts := make(map[classify.OF]int)
		for i, in := range injections {
			res := r.Run(campaign.Spec{Workload: workload.Deploy, Seed: int64(7000 + i), Injection: &in})
			counts[res.OF]++
		}
		return counts
	}
	single, triple := run(1), run(3)
	t.Logf("1 replica: %v; 3 replicas: %v", single, triple)
	if !maps.Equal(single, triple) {
		t.Errorf("OF distribution differs: 1 replica %v, 3 replicas %v", single, triple)
	}
	want := map[classify.OF]int{classify.OFLeR: 1, classify.OFMoR: 1, classify.OFNet: 1, classify.OFSta: 2}
	if !maps.Equal(single, want) {
		t.Errorf("1 replica: %v, want %v", single, want)
	}
}

// TestAtRestCorruptionIsMaskedUntilRestart is the §V-C1 observation that
// corruption at rest propagates differently from in-flight corruption: the
// apiserver's watch cache masks it, an update built from the cache overwrites
// it, and only a restart (which re-lists the store) makes it visible.
func TestAtRestCorruptionIsMaskedUntilRestart(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 51})
	cl.Start()
	defer cl.Stop()
	cl.AwaitSettled(30 * time.Second)
	admin := cl.Client("ablation")
	workload.NewDriver(cl, workload.ScaleUp).Setup()

	name := workload.AppName(0)
	key := spec.Key(spec.KindDeployment, spec.DefaultNamespace, name)
	st := cl.Backend.Replica(0)
	storedReplicas := func(data []byte) int64 {
		obj := &spec.Deployment{}
		if err := codec.Unmarshal(data, obj); err != nil {
			t.Fatalf("stored %s does not decode: %v", key, err)
		}
		return obj.Spec.Replicas
	}
	corrupt := func() {
		ok := st.CorruptAtRest(key, func(data []byte) []byte {
			obj := &spec.Deployment{}
			if err := codec.Unmarshal(data, obj); err != nil {
				t.Fatalf("stored %s does not decode: %v", key, err)
			}
			obj.Spec.Replicas = 0
			out, err := codec.Marshal(obj)
			if err != nil {
				t.Fatalf("re-encode %s: %v", key, err)
			}
			return out
		})
		if !ok {
			t.Fatalf("%s is not stored", key)
		}
	}
	served := func() int64 {
		obj, err := admin.Get(spec.KindDeployment, spec.DefaultNamespace, name)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		return obj.(*spec.Deployment).Spec.Replicas
	}

	// Corrupt at rest, then let a client update flow: the cached (correct)
	// object is what the client reads and writes back.
	corrupt()
	maskedByCache := served() == 2
	obj, _ := admin.Get(spec.KindDeployment, spec.DefaultNamespace, name)
	d := spec.CloneForWriteAs(obj.(*spec.Deployment))
	d.Metadata.Annotations = map[string]string{"touch": "1"}
	if err := admin.Update(d); err != nil {
		t.Fatalf("update %s: %v", key, err)
	}
	cl.Loop.RunUntil(cl.Loop.Now() + 2*time.Second)
	kv, _ := st.Get(key)
	overwritten := storedReplicas(kv.Bytes()) == 2

	// Corrupt again and restart the apiserver: the re-list picks the
	// corruption up.
	corrupt()
	cl.Server.Restart()
	cl.Loop.RunUntil(cl.Loop.Now() + 10*time.Second)
	visibleAfterRestart := served() == 0

	if !maskedByCache || !overwritten || !visibleAfterRestart {
		t.Errorf("masked by the watch cache %v, overwritten by a cache-based update %v, visible after restart %v; §V-C1 says all three",
			maskedByCache, overwritten, visibleAfterRestart)
	}
}

// outcome is an experiment's two-level classification, "OF/CF".
func outcome(res *campaign.Result) string { return res.OF.String() + "/" + res.CF.String() }

// TestFieldGuardBoundsTheSpawn is the §VI-B mitigation this library adds:
// journaling critical-field changes, monitoring cluster health over a
// probation window, and rolling back a change that degrades it. The
// template-label corruption that spawns pods until the store quota stops it
// is run with and without the guard: the guard rolls the label back, the
// spawn stops, and the service is slowed instead of lost.
func TestFieldGuardBoundsTheSpawn(t *testing.T) {
	run := func(guarded bool) *campaign.Result {
		r := claimRunner(cluster.Config{EnableFieldGuard: guarded})
		return r.Run(campaign.Spec{Workload: workload.Deploy, Seed: 8100, Injection: &inject.Injection{
			Channel: inject.ChannelStore, Kind: spec.KindReplicaSet,
			FieldPath: "spec.template.labels[app]", Type: inject.SetValue, Value: "mislabeled", Occurrence: 2,
		}})
	}
	plain, guarded := run(false), run(true)
	if guarded.PodsCreated >= plain.PodsCreated {
		t.Errorf("guard did not bound the spawn: %d pods created with it, %d without", guarded.PodsCreated, plain.PodsCreated)
	}
	for _, c := range []struct {
		name     string
		res      *campaign.Result
		want     string
		wantPods int
	}{
		{"without guard", plain, "Sta/SU", 1724},
		{"with guard", guarded, "Sta/HRT", 84},
	} {
		if got := outcome(c.res); got != c.want || c.res.PodsCreated != c.wantPods {
			t.Errorf("%s: %s with %d pods created, want %s with %d", c.name, got, c.res.PodsCreated, c.want, c.wantPods)
		}
	}
}

// TestChecksumsDetectProtectedFlips is the §VI-B redundancy-code mitigation
// ("redundancy codes on critical fields can protect the cluster from hardware
// faults with a negligible overhead"). Four single-bit flips of checksummed
// fields run without and with the codes. With them, each flip is detected
// once, when the apiserver decodes the stored bytes, and no flip is detected
// without them; critical or networking failures (OF Net or worse, or CF SU)
// fall from 2 of 4 to 1 of 4.
//
// Detection is not repair. A checksum mismatch is a decode error
// (codec.ErrCorrupt), so the apiserver treats the object as undecodable and
// deletes it (§II-D). A controller re-creates what it owns: the Deployment
// its ReplicaSet, the ReplicaSet its Pods. Nothing re-creates a Service the
// user created, so the Service flip ends Net/SU either way: unprotected, the
// Service forwards to the wrong port; protected, there is no Service. The
// test pins that case by name, with the Service gone at the end of the
// protected run and still stored at the end of the unprotected one.
func TestChecksumsDetectProtectedFlips(t *testing.T) {
	const serviceCase = "service-targetport"
	cases := []struct {
		name             string
		in               inject.Injection
		plain, protected string // the classification without and with the codes
	}{
		{"replicaset-template-label", inject.Injection{Channel: inject.ChannelStore, Kind: spec.KindReplicaSet,
			FieldPath: "spec.template.labels[app]", Type: inject.BitFlip, CharIndex: 0, Occurrence: 2}, "Sta/SU", "No/HRT"},
		{"pod-label", inject.Injection{Channel: inject.ChannelStore, Kind: spec.KindPod,
			FieldPath: "metadata.labels[app]", Type: inject.BitFlip, CharIndex: 1, Occurrence: 1}, "MoR/NSI", "MoR/NSI"},
		{serviceCase, inject.Injection{Channel: inject.ChannelStore, Kind: spec.KindService,
			FieldPath: "spec.ports[0].targetPort", Type: inject.BitFlip, Bit: 4, Occurrence: 1}, "Net/SU", "Net/SU"},
		{"pod-nodename", inject.Injection{Channel: inject.ChannelStore, Kind: spec.KindPod,
			FieldPath: "spec.nodeName", Type: inject.BitFlip, CharIndex: 0, Occurrence: 2}, "MoR/HRT", "MoR/HRT"},
	}
	critical := map[bool]int{}
	for _, protected := range []bool{false, true} {
		cfg := cluster.Config{CriticalFieldChecksums: protected}
		r := claimRunner(cfg)
		for i, c := range cases {
			seed := int64(8200 + i)
			res := r.Run(campaign.Spec{Workload: workload.Deploy, Seed: seed, Injection: &c.in})
			if res.OF >= classify.OFNet || res.CF == classify.CFSU {
				critical[protected]++
			}
			want := c.plain
			if protected {
				want = c.protected
			}
			if got := outcome(res); got != want {
				t.Errorf("%s, checksums %v: %s, want %s", c.name, protected, got, want)
			}

			detected, stored := driveChecksums(cfg, c.in, seed)
			switch {
			case protected && detected != 1:
				t.Errorf("%s: %d checksum failures with the codes, want 1", c.name, detected)
			case !protected && detected != 0:
				t.Errorf("%s: %d checksum failures without the codes, want 0", c.name, detected)
			}
			if c.name == serviceCase && stored == protected {
				t.Errorf("%s, checksums %v: Service stored at the end %v; the protected run deletes it and nothing re-creates it",
					c.name, protected, stored)
			}
		}
	}
	if critical[false] != 2 || critical[true] != 1 {
		t.Errorf("critical or networking failures: %d/%d without checksums, %d/%d with; want 2 and 1, and never more with the codes than without",
			critical[false], len(cases), critical[true], len(cases))
	}
}

// driveChecksums replays one checksum experiment on a cluster the test drives
// itself — the replay regime's boot, arm and window, without the application
// client and collector — and reports the audit's checksum-failure count and
// whether the injected object is still stored when the window closes.
func driveChecksums(cfg cluster.Config, in inject.Injection, seed int64) (failures int, stored bool) {
	cfg.Seed = seed
	cl := cluster.New(cfg)
	defer cl.Stop()
	injector := inject.New(cl.Loop)
	cl.AttachInjector(injector)
	cl.Start()
	cl.AwaitSettled(30 * time.Second)
	driver := workload.NewDriver(cl, workload.Deploy)
	driver.Setup()
	injector.Arm(in)
	start := cl.Loop.Now()
	cl.Loop.RunUntil(start + time.Second)
	driver.Run()
	cl.Loop.RunUntil(start + 45*time.Second)
	_, stored = cl.Backend.Replica(0).Get(injector.Report().StoreKey)
	return cl.Server.Audit().ChecksumFailures(), stored
}

// TestFigure5InjectedAboveGolden is Figure 5's ordering: a replica-count
// corruption that under-provisions the target service lifts the client's
// latency z-score above an uninjected run's on the same seed. mutiny-inject
// prints the figure for this experiment.
func TestFigure5InjectedAboveGolden(t *testing.T) {
	r := claimRunner(cluster.Config{})
	golden := r.Run(campaign.Spec{Workload: workload.ScaleUp, Seed: 1})
	injected := r.Run(campaign.Spec{Workload: workload.ScaleUp, Seed: 1, Injection: &inject.Injection{
		Channel: inject.ChannelStore, Kind: spec.KindDeployment,
		FieldPath: "spec.replicas", Type: inject.SetValue, Value: int64(0), Occurrence: 2,
	}})
	t.Logf("golden z %.1f, injected z %.1f", golden.Z, injected.Z)
	if injected.Z <= golden.Z {
		t.Errorf("injected z %.1f not above golden z %.1f", injected.Z, golden.Z)
	}
}
