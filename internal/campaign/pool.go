package campaign

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the parallel campaign execution engine. Every
// experiment is an isolated, deterministic simulation (its own cluster, loop,
// and seeded RNG), so a campaign is embarrassingly parallel — the only shared
// state is the Runner's golden baselines (built once per workload behind a
// per-kind guard, see campaign.go) and the Progress callback (serialized by
// progressTicker). Results are written to index-addressed slots and merged in
// generated-spec order, which keeps every Output aggregate bit-identical to
// a one-worker run no matter how the workers interleave.

// resolveParallelism maps the Parallelism knob to a worker count:
// 0 (or negative) = runtime.GOMAXPROCS(0), n = n workers.
func resolveParallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// forEachWorker runs fn(w, i) for every i in [0, n) across at most `workers`
// goroutines, and at least one, which then runs the indices in order.
// Goroutines claim indices from a shared counter, so fn must write its result
// into an index-addressed slot; iteration order across goroutines is
// unspecified, but every index runs exactly once. Every goroutine borrows one
// Worker from the Runner for its whole index stream, so the worker's scratch
// state (its buffer pool) never crosses a goroutine boundary and is reused
// across every experiment the goroutine claims. Workers are released back to
// the Runner's idle stack when the fan-out drains, so a campaign builds at
// most max(parallelism over all phases) workers total.
func forEachWorker(n, workers int, r *Runner, fn func(w *Worker, i int)) {
	if n <= 0 {
		return
	}
	workers = min(max(workers, 1), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			w := r.acquireWorker()
			defer r.releaseWorker(w)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// runAll executes every spec with run, fanning out across `workers`
// goroutines (each bound to one campaign Worker), and returns the results
// in spec order.
func runAll(specs []Spec, workers int, r *Runner, run func(*Worker, Spec) *Result, tick func()) []*Result {
	results := make([]*Result, len(specs))
	forEachWorker(len(specs), workers, r, func(w *Worker, i int) {
		results[i] = run(w, specs[i])
		if tick != nil {
			tick()
		}
	})
	return results
}

// progressTicker makes a Config.Progress callback concurrency-safe: workers
// finishing simultaneously tick it from multiple goroutines, so the count
// update and the user callback both run under one mutex (the callback is
// almost always writing a progress line to a terminal — serializing it is the
// behavior callers expect).
type progressTicker struct {
	mu       sync.Mutex
	done     int
	total    int
	progress func(done, total int)
}

func newProgressTicker(total int, progress func(done, total int)) *progressTicker {
	return &progressTicker{total: total, progress: progress}
}

// tick records one finished experiment and reports progress.
func (t *progressTicker) tick() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
	if t.progress != nil {
		t.progress(t.done, t.total)
	}
}
