package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// rewindShapes are the cluster shapes the rewind tests cover: the paper's
// testbed, a zoned one, an HA control plane, an admission chain, and the
// field guard (which hooks every server's store channel).
var rewindShapes = []struct {
	name string
	cfg  Config
}{
	{"default", Config{}},
	{"zoned", Config{Workers: 12, Zones: 3}},
	{"ha", Config{ControlPlaneReplicas: 3}},
	{"hooks", Config{AdmissionHooks: 3, FailurePolicy: "Fail"}},
	{"guard", Config{EnableFieldGuard: true}},
}

func settledSnapshot(t testing.TB, cfg Config) *Snapshot {
	t.Helper()
	cfg.Seed = 4242
	c := New(cfg)
	c.Start()
	if !c.AwaitSettled(30 * time.Second) {
		t.Fatal("cluster did not settle within 30s of simulated time")
	}
	admin := c.Client("setup")
	_ = admin.Create(appDeployment("web", 2))
	_ = admin.Create(appService("web"))
	c.Loop.RunUntil(c.Loop.Now() + 10*time.Second)
	return c.Snapshot()
}

// dirty runs the messiest experiment the shape allows on c and leaves every
// kind of trace behind: attached injector hooks and an armed, fired
// injection, experiment clients with live watches and reflectors, a runaway
// ReplicaSet, tampered and corrupted-at-rest keys, and every fault axis the
// platform offers, none of them healed.
func dirty(t *testing.T, c *Cluster) {
	t.Helper()
	c.Loop.SetEventBudget(400_000)
	j := inject.New(c.Loop)
	c.AttachInjector(j)
	j.Arm(inject.Injection{
		Channel: inject.ChannelStore, Kind: spec.KindReplicaSet, Type: inject.SetValue,
		FieldPath: "spec.template.labels[app]", Value: "", Occurrence: 2,
	})

	user := c.Client("kbench")
	view := apiserver.NewReflector(c.Loop, user, time.Second, func(apiserver.WatchEvent) {}, spec.Kinds()...)
	view.Start()
	_ = c.Client("monitoring").Watch(spec.KindPod, func(apiserver.WatchEvent) {})
	_ = user.Create(appDeployment("storm", 3))
	_ = user.Create(appService("storm"))
	_ = user.Create(&spec.Pod{Metadata: spec.ObjectMeta{Name: "bad name!", Namespace: spec.DefaultNamespace}}) // audited error
	c.Loop.RunUntil(c.Loop.Now() + 5*time.Second)
	if !j.Report().Fired {
		t.Fatal("the runaway injection never fired; the experiment is not dirty enough")
	}

	key := spec.Key(spec.KindDeployment, spec.DefaultNamespace, "web")
	corrupt := func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }
	c.Backend.Replica(0).CorruptAtRest(key, corrupt)
	c.Kubelets["worker-1"].SetDown(true)
	if c.Replicas() > 1 {
		c.SetAPIServerDown(0, true)
		c.SetMasterIsolated(1, true)
		c.SetStoreReplicaLost(2, true)
	} else {
		c.Server.Restart()
	}
	if chain := c.Admission(); chain != nil {
		chain.SetFailurePolicy(apiserver.FailOpen)
		chain.SetWebhookDown(0, true)
		chain.SetWebhookSlow(1, true)
		chain.SetSelectorBroken(2, true)
		chain.SetPolicyDropped(1, true)
	}
	if c.Zones() > 1 {
		c.SetZonePartitioned(c.ZoneName(1), true)
		c.SetZoneNodesDown(c.ZoneName(2), true)
		c.SetZoneLink(c.ZoneName(0), false)
	}
	c.Loop.RunUntil(c.Loop.Now() + 40*time.Second)
	if n := len(c.Client("probe").List(spec.KindPod, "")); c.Replicas() == 1 && n < 30 {
		t.Fatalf("only %d pods after the runaway; the experiment is not dirty enough", n)
	}
}

// TestRewindLeavesNoTrace pins the invariant rewind ≡ fork from the inside:
// after a dirty experiment, a Rewind and a Restore, everything reachable from
// the Cluster equals what a fresh Fork of the same seed holds, field for
// field. The walk covers every field of every component, so state added to a
// component later is compared without anyone remembering to.
func TestRewindLeavesNoTrace(t *testing.T) {
	for _, shape := range rewindShapes {
		t.Run(shape.name, func(t *testing.T) {
			snap := settledSnapshot(t, shape.cfg)
			c := snap.Fork(11)
			dirty(t, c)
			for seed := int64(21); seed < 23; seed++ { // twice: a rewound cluster rewinds again
				c.Rewind()
				snap.Restore(c, seed)
				fresh := snap.Fork(seed)
				w := walker{seen: make(map[[2]uintptr]bool)}
				w.equal(reflect.ValueOf(c), reflect.ValueOf(fresh), "Cluster")
				for _, d := range w.diffs {
					t.Error(d)
				}
				// And they stay equal when driven on.
				c.Loop.RunUntil(c.Loop.Now() + 20*time.Second)
				fresh.Loop.RunUntil(fresh.Loop.Now() + 20*time.Second)
				if a, b := c.Loop.EventsExecuted(), fresh.Loop.EventsExecuted(); a != b {
					t.Errorf("seed %d: %d events executed after a rewind, %d after a fork", seed, a, b)
				}
				if a, b := c.Backend.Revision(), fresh.Backend.Revision(); a != b {
					t.Errorf("seed %d: store revision %d after a rewind, %d after a fork", seed, a, b)
				}
			}
		})
	}
}

// scratch lists the fields the walk does not compare, as "Type.field": memory
// kept for reuse whose content carries no state.
var scratch = map[string]bool{
	// The event free list, and the generation counters that make a recycled
	// event struct distinguishable from its earlier uses.
	"Loop.free": true, "event.gen": true, "Timer.gen": true,
	// Encode workspaces: the encoder and the request, store and watch-event
	// buffers, holding the last request's bytes between uses.
	"Server.arena": true, "Server.reqData": true, "Server.storeData": true, "Server.watchData": true,
	// The data plane's free list of load-window rings: the buffers of the
	// windows a Reset dropped, their times dead, waiting for the next pods
	// that serve a request.
	"State.spareTimes": true,
}

// walker compares two values structurally: pointers by what they point to,
// slices and maps by content (nil and empty alike, spare capacity ignored),
// funcs by whether they are set.
type walker struct {
	seen  map[[2]uintptr]bool
	diffs []string
}

func (w *walker) diff(path, format string, args ...any) {
	if len(w.diffs) < 20 {
		w.diffs = append(w.diffs, path+": "+fmt.Sprintf(format, args...))
	}
}

func (w *walker) equal(a, b reflect.Value, path string) {
	if a.Kind() != b.Kind() {
		w.diff(path, "kind %s vs %s", a.Kind(), b.Kind())
		return
	}
	switch a.Kind() {
	case reflect.Func:
		if a.IsNil() != b.IsNil() {
			w.diff(path, "func set: %v vs %v", !a.IsNil(), !b.IsNil())
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				w.diff(path, "nil: %v vs %v", a.IsNil(), b.IsNil())
			}
			return
		}
		if a.Kind() == reflect.Pointer {
			pair := [2]uintptr{a.Pointer(), b.Pointer()}
			if pair[0] == pair[1] || w.seen[pair] {
				return
			}
			w.seen[pair] = true
		} else if a.Elem().Type() != b.Elem().Type() {
			w.diff(path, "type %s vs %s", a.Elem().Type(), b.Elem().Type())
			return
		}
		w.equal(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			f := a.Type().Field(i)
			if !scratch[a.Type().Name()+"."+f.Name] {
				w.equal(a.Field(i), b.Field(i), path+"."+f.Name)
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			w.diff(path, "len %d vs %d", a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			w.equal(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Map:
		// An entry holding nothing (an emptied bucket kept for its memory)
		// counts as absent.
		for _, side := range [2][2]reflect.Value{{a, b}, {b, a}} {
			for it := side[0].MapRange(); it.Next(); {
				other := side[1].MapIndex(it.Key())
				switch {
				case other.IsValid():
					if side[0] == a {
						w.equal(it.Value(), other, fmt.Sprintf("%s[%v]", path, it.Key()))
					}
				case !holdsNothing(it.Value()):
					w.diff(path, "key %v on one side only", it.Key())
				}
			}
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			w.diff(path, "%v vs %v", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			w.diff(path, "%d vs %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			w.diff(path, "%d vs %d", a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			w.diff(path, "%v vs %v", a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			w.diff(path, "%q vs %q", a.String(), b.String())
		}
	default:
		w.diff(path, "kind %s is not compared", a.Kind())
	}
}

// holdsNothing reports whether v is an empty container, or a pointer to a
// struct of nothing but empty containers.
func holdsNothing(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice, reflect.Map:
		return v.Len() == 0
	case reflect.Pointer:
		if v.IsNil() || v.Elem().Kind() != reflect.Struct || v.Elem().NumField() == 0 {
			return false
		}
		for i := 0; i < v.Elem().NumField(); i++ {
			if k := v.Elem().Field(i).Kind(); (k != reflect.Slice && k != reflect.Map) || v.Elem().Field(i).Len() != 0 {
				return false
			}
		}
		return true
	}
	return false
}

// TestRewindAllocatesAThirdOfFork holds the point of rewinding: restoring a
// rewound cluster reuses its memory.
func TestRewindAllocatesAThirdOfFork(t *testing.T) {
	snap := settledSnapshot(t, Config{})
	seed := int64(100)
	fork := testing.AllocsPerRun(20, func() {
		seed++
		snap.Fork(seed).Stop()
	})
	c := snap.Fork(1)
	rewind := testing.AllocsPerRun(20, func() {
		seed++
		c.Rewind()
		snap.Restore(c, seed)
	})
	t.Logf("fork + stop: %.0f allocations; rewind + restore: %.0f", fork, rewind)
	if rewind > fork/3 {
		t.Errorf("rewind + restore allocates %.0f times, more than a third of fork + stop's %.0f", rewind, fork)
	}
}
