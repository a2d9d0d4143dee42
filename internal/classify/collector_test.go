package classify

import (
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/cluster"
)

// An Observation outlives its experiment — a golden one lives as long as its
// baseline — while the Collector holds the cluster: an observation pointing
// into the collector would pin the cluster, and whatever a later experiment on
// the same (worker-owned, reused) cluster left in it, for as long.
func TestFinishReturnsADetachedObservation(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 1})
	cl.Start()
	c := NewCollector(cl)
	c.Start()
	cl.Loop.RunUntil(cl.Loop.Now() + 2*samplePeriod + time.Second)
	obs := c.Finish(nil)
	if obs == &c.obs {
		t.Fatal("Finish returned a pointer into the Collector")
	}
	if len(obs.Samples) < 3 {
		t.Fatalf("the observation carries %d samples, want the window's", len(obs.Samples))
	}
}
