package classify

import "github.com/mutiny-sim/mutiny/internal/workload"

// BufferPool recycles the one buffer an Observation owns: its copy of the
// client's latency series (workload.TotalRequests floats). A campaign runs
// thousands of experiments whose observations are classified and immediately
// discarded; without recycling, every experiment allocates a fresh series.
//
// The pool is a plain, unsynchronized free list: it is owned by exactly one
// campaign worker (one experiment lifecycle at a time), so there is nothing
// to synchronize. Only observations that provably do not escape are released
// (golden-run observations, which baselines retain, and those RunObserved
// hands out never are). A BufferPool must not be used from two goroutines at
// once.
type BufferPool struct {
	series [][]float64
}

// NewBufferPool builds an empty pool.
func NewBufferPool() *BufferPool {
	return &BufferPool{}
}

// getSeries borrows an empty series buffer.
func (p *BufferPool) getSeries() []float64 {
	if p == nil {
		return nil
	}
	if n := len(p.series); n > 0 {
		s := p.series[n-1]
		p.series = p.series[:n-1]
		return s[:0]
	}
	return make([]float64, 0, workload.TotalRequests)
}

// Release returns an observation's series to the pool and clears it from the
// observation. The caller must be the last reader: after Release the buffer
// may be handed to the owner's next experiment.
func (p *BufferPool) Release(o *Observation) {
	if p == nil || o == nil || o.Series == nil {
		return
	}
	p.series = append(p.series, o.Series)
	o.Series = nil
}
