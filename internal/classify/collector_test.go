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
	if obs.scrapes < 3 {
		t.Fatalf("the observation folded %d scrapes, want the window's", obs.scrapes)
	}
	// A scrape the collector folds after Finish must not reach the copy.
	envelope := func(o *Observation) [6]int64 {
		return [6]int64{int64(o.scrapes), o.FinalReady(), int64(o.FinalEndpoints()), o.MaxReady(), int64(o.MaxEndpoints()), int64(len(o.Series))}
	}
	want := envelope(obs)
	c.obs.scrape(obs.MaxReady()+1, obs.MaxEndpoints()+1)
	if got := envelope(obs); got != want {
		t.Fatalf("the observation's envelope moved with the collector's: %v, was %v", got, want)
	}
}
