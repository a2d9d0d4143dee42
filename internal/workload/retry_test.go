package workload

import (
	"fmt"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// TestDriverRetriesConflicts holds the driver's two conflict-retried writes
// to their attempt counts: scaling a deployment tries 3 times, tainting the
// failover victim 5 times, and each conflict waits 100 ms before the next
// read. A request hook makes the first k kbench updates conflict by moving
// their resourceVersion ahead of the stored one.
func TestDriverRetriesConflicts(t *testing.T) {
	for _, tc := range []struct {
		name     string
		kind     Kind
		attempts int
		write    func(d *Driver) (landed func() bool)
	}{
		{"scale", ScaleUp, 3, func(d *Driver) func() bool {
			d.scaleTo(AppName(0), 7)
			return func() bool {
				obj, err := d.User.Get(spec.KindDeployment, spec.DefaultNamespace, AppName(0))
				return err == nil && obj.(*spec.Deployment).Spec.Replicas == 7
			}
		}},
		{"taint", Failover, 5, func(d *Driver) func() bool {
			victim := d.taintBusiestNode()
			return func() bool {
				obj, err := d.User.Get(spec.KindNode, "", victim)
				if err != nil {
					return false
				}
				for _, taint := range obj.(*spec.Node).Spec.Taints {
					if taint.Key == failoverTaintKey {
						return true
					}
				}
				return false
			}
		}},
	} {
		for _, k := range []int{tc.attempts - 1, tc.attempts, tc.attempts + 2} {
			t.Run(fmt.Sprintf("%s/conflicts=%d", tc.name, k), func(t *testing.T) {
				c := bootCluster(t, 4)
				d := NewDriver(c, tc.kind)
				d.Setup()
				requests := 0
				c.Server.SetRequestHook(func(m *apiserver.Message) apiserver.Action {
					if m.Source != UserIdentity || m.Verb != apiserver.VerbUpdate {
						return apiserver.Pass
					}
					requests++
					if requests > k {
						return apiserver.Pass
					}
					obj := spec.New(m.Kind)
					if err := codec.Unmarshal(m.Encoded(), obj); err != nil {
						t.Fatal(err)
					}
					obj.Meta().ResourceVersion += 1000
					data, err := codec.Marshal(obj)
					if err != nil {
						t.Fatal(err)
					}
					m.Data = data
					return apiserver.Pass
				})
				start := c.Loop.Now()
				landed := tc.write(d)
				waited := c.Loop.Now() - start
				c.Loop.RunUntil(c.Loop.Now() + time.Second) // the watch cache catches up

				wantRequests, wantLanded := k+1, true
				if k >= tc.attempts {
					wantRequests, wantLanded = tc.attempts, false
				}
				if requests != wantRequests {
					t.Errorf("driver sent %d updates, want %d", requests, wantRequests)
				}
				if want := time.Duration(min(k, tc.attempts)) * 100 * time.Millisecond; waited != want {
					t.Errorf("clock moved %v, want %v", waited, want)
				}
				if got := landed(); got != wantLanded {
					t.Errorf("write landed = %v, want %v", got, wantLanded)
				}
			})
		}
	}
}
