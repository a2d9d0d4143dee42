package campaign

import (
	"bytes"
	"sync"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// TestSealedWireBytesAlwaysMatchEncoding extends the seal-contract guard to
// the encode cache: every sealed object that carries cached wire bytes — the
// array the store holds for it, encoded at its writer's resource version —
// must carry bytes that, with the object's own revision patched into their
// metadata+spec prefix (codec.AppendPrefixWithRV, what the status splice
// does), are EXACTLY what a fresh codec.Marshal of that object produces, with
// a status offset that agrees with a real scan of those bytes. The hook
// checks the offset at seal time and the test re-verifies after full
// experiments on both execution regimes — so a stale splice prefix, a missed
// invalidation, or a consumer scribbling on the cached array would all surface
// as a wire-vs-encoding divergence somewhere in the campaign's traffic.
func TestSealedWireBytesAlwaysMatchEncoding(t *testing.T) {
	ClearSnapshotCache()
	defer ClearSnapshotCache()

	type cached struct {
		obj  spec.Object
		wire []byte
		off  int
	}
	const maxTracked = 200_000
	var (
		mu       sync.Mutex
		tracked  []cached
		withWire int
		dropped  int
	)
	spec.RegisterSealHook(func(o spec.Object) {
		w, off := o.Meta().WireBytes()
		if w == nil {
			return
		}
		mu.Lock()
		withWire++
		ok := len(tracked) < maxTracked
		if ok {
			tracked = append(tracked, cached{obj: o, wire: w, off: off})
		} else {
			dropped++
		}
		mu.Unlock()
		if !ok {
			return
		}
		// The offset must delimit the real metadata+spec prefix, checked
		// here while the seal is fresh.
		if got, okScan := codec.StatusOffset(w); !okScan || got != off {
			m := o.Meta()
			t.Errorf("sealed %s %s/%s (rv %d): cached status offset %d, real scan says %d (ok=%v)",
				o.Kind(), m.Namespace, m.Name, m.ResourceVersion, off, got, okScan)
		}
	})
	defer spec.RegisterSealHook(nil)

	// Heavy status-write traffic: the template-label corruption drives
	// uncontrolled replication on top of the golden runs' nominal churn.
	in := inject.Injection{
		Channel: inject.ChannelStore, Kind: spec.KindReplicaSet,
		FieldPath: "spec.template.labels[app]",
		Type:      inject.SetValue, Value: "mislabeled", Occurrence: 2,
	}
	for _, share := range []bool{false, true} {
		runner := NewRunner()
		runner.GoldenRuns = 3
		runner.Parallelism = 4
		runner.ShareBootstrap = share
		inCopy := in
		if res := runner.Run(Spec{Workload: workload.Deploy, Seed: 7200, Injection: &inCopy}); res == nil {
			t.Fatalf("share=%v: experiment produced no result", share)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if withWire == 0 {
		t.Fatal("no sealed object carried wire bytes — the encode cache is not active")
	}
	if dropped > 0 {
		t.Logf("note: %d wire-carrying seals beyond the tracking bound were not verified", dropped)
	}
	violations := 0
	for _, c := range tracked {
		b, err := codec.Marshal(c.obj)
		canonical, ok := codec.AppendPrefixWithRV(nil, c.wire[:c.off], c.obj.Meta().ResourceVersion)
		canonical = append(canonical, c.wire[c.off:]...)
		if err != nil || !ok || !bytes.Equal(b, canonical) {
			violations++
			if violations <= 5 {
				m := c.obj.Meta()
				t.Errorf("sealed %s %s/%s (rv %d): cached wire at the committed revision differs from a fresh Marshal",
					c.obj.Kind(), m.Namespace, m.Name, m.ResourceVersion)
			}
		}
	}
	if violations > 0 {
		t.Fatalf("%d of %d cached wire encodings diverged from their objects", violations, len(tracked))
	}
	t.Logf("verified %d cached wire encodings exact", len(tracked))
}
