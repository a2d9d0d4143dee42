package classify

import "testing"

func TestBufferPoolRecyclesSeries(t *testing.T) {
	p := NewBufferPool()
	buf := p.getSeries()
	if len(buf) != 0 {
		t.Fatalf("borrowed buffer not empty: len=%d", len(buf))
	}
	buf = append(buf, 3)
	obs := &Observation{Series: buf}
	p.Release(obs)
	if obs.Series != nil {
		t.Fatal("Release left the observation holding pooled memory")
	}
	// Double release must be a no-op, not a double-put.
	p.Release(obs)

	again := p.getSeries()
	if len(again) != 0 || &again[:1][0] != &buf[0] {
		t.Fatal("the released buffer was not handed out again, empty")
	}
	if next := p.getSeries(); cap(next) == 0 || &next[:1][0] == &buf[0] {
		t.Fatal("the buffer was handed out twice")
	}
}

func TestBufferPoolNilSafety(t *testing.T) {
	var p *BufferPool
	if got := p.getSeries(); got != nil {
		t.Fatal("nil pool must fall back to plain allocation (nil slice)")
	}
	p.Release(&Observation{Series: []float64{1}}) // must not panic
}
