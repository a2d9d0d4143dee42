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
	var buf []byte
	for i := 0; i < 10; i++ {
		got, err := a.AppendMarshal(buf[:0], &in)
		if err != nil {
			t.Fatalf("Arena.AppendMarshal: %v", err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("arena encode diverges from Marshal on iteration %d", i)
		}
		buf = got
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
