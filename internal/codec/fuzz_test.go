// Fuzz targets over the decoders the campaign feeds corrupted bytes: every
// FlipProtoByte injection and every at-rest rewrite ends in Unmarshal, and
// the status splice in StatusOffset and AppendPrefixWithRV. Size, which the
// store's quota counts in place of encoded bytes, is held to Marshal on
// whatever those decoders accept.
package codec_test

import (
	"bytes"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// encodedSamples returns the encoding of every kind's representative object
// and, per byte of each, the encoding with one bit of that byte flipped.
func encodedSamples(t testing.TB) [][]byte {
	var out [][]byte
	for _, obj := range representativeObjects() {
		data, err := codec.Marshal(obj)
		if err != nil {
			t.Fatalf("%s: %v", obj.Kind(), err)
		}
		out = append(out, data)
		for off := range data {
			flipped := bytes.Clone(data)
			flipped[off] ^= 1 << (off % 8)
			out = append(out, flipped)
		}
	}
	return out
}

// Arbitrary bytes decoded into every kind never panic, and whatever decodes
// re-encodes to a fixpoint: one more Unmarshal/Marshal round gives the same
// bytes.
func FuzzUnmarshal(f *testing.F) {
	for _, data := range encodedSamples(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range spec.Kinds() {
			obj := spec.New(kind)
			if codec.Unmarshal(data, obj) != nil {
				continue
			}
			once, err := codec.Marshal(obj)
			if err != nil {
				t.Fatalf("%s: decoded %x, cannot encode it: %v", kind, data, err)
			}
			again := spec.New(kind)
			if err := codec.Unmarshal(once, again); err != nil {
				t.Fatalf("%s: decoded %x, its encoding %x does not decode: %v", kind, data, once, err)
			}
			twice, err := codec.Marshal(again)
			if err != nil {
				t.Fatalf("%s: re-encoding %x: %v", kind, once, err)
			}
			if !bytes.Equal(once, twice) {
				t.Fatalf("%s: decoded %x, encodes to %x, then to %x", kind, data, once, twice)
			}
		}
	})
}

// AppendPrefixWithRV agrees with RewriteObjectRV, the reference it replaced
// (export_test.go), on any bytes and any revision: both accept or both
// refuse, with the same output, and neither touches its input. StatusOffset
// never panics and never points past the data.
func FuzzAppendPrefixWithRV(f *testing.F) {
	for _, data := range encodedSamples(f) {
		f.Add(data, int64(128))
	}
	for _, obj := range representativeObjects() {
		data, _ := codec.Marshal(obj)
		off, _ := codec.StatusOffset(data)
		for _, rv := range []int64{0, 1, 127, 1 << 28, -1} {
			f.Add(data[:off], rv)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, rv int64) {
		if off, _ := codec.StatusOffset(data); off < 0 || off > len(data) {
			t.Fatalf("StatusOffset(%x) = %d, past the %d bytes", data, off, len(data))
		}
		orig := bytes.Clone(data)
		want := codec.RewriteObjectRV(data, rv)
		got, ok := codec.AppendPrefixWithRV([]byte("kept"), data, rv)
		switch {
		case ok != (want != nil):
			t.Fatalf("rv %d on %x: AppendPrefixWithRV ok=%v, RewriteObjectRV ok=%v", rv, data, ok, want != nil)
		case ok && string(got) != "kept"+string(want):
			t.Fatalf("rv %d on %x: AppendPrefixWithRV appends %x, RewriteObjectRV returns %x", rv, data, got[4:], want)
		case !ok && string(got) != "kept":
			t.Fatalf("rv %d on %x: a refusal changed the buffer to %q", rv, data, got)
		}
		if !bytes.Equal(data, orig) {
			t.Fatalf("rv %d: the input changed from %x to %x", rv, orig, data)
		}
	})
}

// sizeSamples returns encodings whose lengths sit on the codec's edges: every
// representative object at resourceVersions either side of a varint's one-
// and two-byte limits, and a pod with empty strings in repeated fields and
// an empty map value.
func sizeSamples(t testing.TB) [][]byte {
	var out [][]byte
	add := func(obj spec.Object) {
		data, err := codec.Marshal(obj)
		if err != nil {
			t.Fatalf("%s: %v", obj.Kind(), err)
		}
		out = append(out, data)
	}
	for _, rv := range []int64{0, 127, 128, 16383, 16384} {
		for _, obj := range representativeObjects() {
			obj.Meta().ResourceVersion = rv
			add(obj)
		}
	}
	pod := representativeObjects()[0].(*spec.Pod)
	pod.Spec.Containers[0].Command = []string{"", "serve", ""}
	pod.Metadata.Labels = map[string]string{spec.LabelApp: "", "": "v"}
	pod.Metadata.Annotations = map[string]string{"empty": ""}
	add(pod)
	return out
}

// Size is the length of Marshal for every object Unmarshal accepts into any
// kind: the store counts its quota and value limit in Size, and
// FlipProtoByte draws its offset from the length of the bytes Marshal makes.
func FuzzEncodedSize(f *testing.F) {
	for _, data := range sizeSamples(f) {
		f.Add(data)
	}
	for _, data := range encodedSamples(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range spec.Kinds() {
			obj := spec.New(kind)
			if codec.Unmarshal(data, obj) != nil {
				continue
			}
			enc, err := codec.Marshal(obj)
			if err != nil {
				t.Fatalf("%s: decoded %x, cannot encode it: %v", kind, data, err)
			}
			if n, err := codec.Size(obj); err != nil || n != len(enc) {
				t.Fatalf("%s: decoded %x: Size = %d (err %v), Marshal makes %d bytes", kind, data, n, err, len(enc))
			}
		}
	})
}
