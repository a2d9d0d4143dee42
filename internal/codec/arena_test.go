package codec

import (
	"bytes"
	"testing"
)

// TestArenaMarshalMatchesMarshal pins the arena encode path to the shared
// path byte for byte: an Arena is a contention optimization, never a format
// change.
func TestArenaMarshalMatchesMarshal(t *testing.T) {
	in := sample()
	want, err := Marshal(&in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	a := NewArena()
	for i := 0; i < 10; i++ {
		buf := a.NewBuffer()
		got, err := a.AppendMarshal(buf.B[:0], &in)
		if err != nil {
			t.Fatalf("Arena.AppendMarshal: %v", err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("arena encode diverges from Marshal on iteration %d", i)
		}
		buf.B = got
		buf.Free()
	}
}

// TestArenaBufferRecycling checks that Free returns arena buffers to the
// arena's free list and NewBuffer reuses them.
func TestArenaBufferRecycling(t *testing.T) {
	a := NewArena()
	b1 := a.NewBuffer()
	if b1.owner != a {
		t.Fatal("arena buffer not tagged with its owner")
	}
	b1.B = append(b1.B, "hello"...)
	b1.Free()
	if len(a.free) != 1 {
		t.Fatalf("free list len = %d, want 1", len(a.free))
	}
	b2 := a.NewBuffer()
	if b2 != b1 {
		t.Fatal("NewBuffer did not reuse the freed buffer")
	}
	if len(b2.B) != 0 {
		t.Fatal("recycled buffer not reset")
	}
	// Oversized buffers are dropped rather than retained.
	b2.B = make([]byte, maxPooledBuffer+1)
	b2.Free()
	if len(a.free) != 0 {
		t.Fatal("oversized buffer retained on the free list")
	}
}

// TestEncoderScratchReuse checks the depth-indexed scratch stack releases
// every slot (depth returns to zero) across nested encodes.
func TestEncoderScratchReuse(t *testing.T) {
	var e encoder
	in := sample()
	for i := 0; i < 3; i++ {
		if _, err := e.marshal(nil, &in); err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if e.depth != 0 {
			t.Fatalf("scratch depth = %d after marshal, want 0", e.depth)
		}
	}
	// Nested struct + map encode should have populated at least one slot.
	if len(e.scratch) == 0 {
		t.Fatal("no scratch slots allocated for nested message")
	}
}
