// Tests and benchmarks for sectioned access to encoded objects — the
// primitives behind the apiserver's write-path encode elision. Exactness is
// everything here: a splice or RV patch that differs from a full Marshal
// by one byte would silently diverge the store from the cache.
package codec_test

import (
	"bytes"
	"strings"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

func statusPod(rv int64) *spec.Pod {
	return &spec.Pod{
		Metadata: spec.ObjectMeta{
			Name: "web-1", Namespace: spec.DefaultNamespace,
			ResourceVersion: rv, UID: "uid-1",
			Labels: map[string]string{spec.LabelApp: "web"},
		},
		Spec: spec.PodSpec{
			NodeName: "node-1",
			Containers: []spec.Container{{
				Name: "web", Image: "registry.local/web:1.0",
				RequestsMilliCPU: 100, RequestsMemMB: 64, Port: 8080,
			}},
		},
		Status: spec.PodStatus{Phase: spec.PodRunning, Ready: true, PodIP: "10.244.0.5"},
	}
}

// StatusOffset + AppendStructField reproduce a full Marshal: prefix through
// the spec section, spliced status record, byte for byte.
func TestStatusSpliceMatchesFullMarshal(t *testing.T) {
	pod := statusPod(7)
	full, err := codec.Marshal(pod)
	if err != nil {
		t.Fatal(err)
	}
	off, ok := codec.StatusOffset(full)
	if !ok {
		t.Fatal("StatusOffset failed on a valid encoding")
	}
	if off <= 0 || off >= len(full) {
		t.Fatalf("status offset %d out of range for a pod with status (len %d)", off, len(full))
	}

	changed := *pod
	changed.Status = spec.PodStatus{Phase: spec.PodFailed, Reason: "Evicted", RestartCount: 2}
	arena := codec.NewArena()
	spliced, err := arena.AppendStructField(append([]byte(nil), full[:off]...), codec.ObjectStatusField, &changed.Status)
	if err != nil {
		t.Fatal(err)
	}
	want, err := codec.Marshal(&changed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spliced, want) {
		t.Fatalf("spliced encoding differs from full Marshal:\n  spliced %x\n  want    %x", spliced, want)
	}
}

// An empty status section is omitted by the encoder; the splice must omit it
// identically, and StatusOffset must then point at the end of the data.
func TestStatusSpliceOmitsEmptyStatus(t *testing.T) {
	pod := statusPod(3)
	pod.Status = spec.PodStatus{}
	full, err := codec.Marshal(pod)
	if err != nil {
		t.Fatal(err)
	}
	off, ok := codec.StatusOffset(full)
	if !ok || off != len(full) {
		t.Fatalf("StatusOffset = (%d, %v) on a statusless pod, want (%d, true)", off, ok, len(full))
	}
	arena := codec.NewArena()
	spliced, err := arena.AppendStructField(append([]byte(nil), full[:off]...), codec.ObjectStatusField, &pod.Status)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spliced, full) {
		t.Fatal("splicing an empty status emitted bytes the full encoder omits")
	}
}

// RewriteObjectRV produces exactly what encoding the object at the new RV
// would — across growing/shrinking varint widths and the absent-field (RV 0)
// encoding in both directions.
func TestRewriteObjectRVMatchesReencode(t *testing.T) {
	for _, from := range []int64{0, 1, 127, 128, 300, 1 << 20} {
		for _, to := range []int64{0, 1, 127, 128, 16384, 1 << 28} {
			pod := statusPod(from)
			data, err := codec.Marshal(pod)
			if err != nil {
				t.Fatal(err)
			}
			got := codec.RewriteObjectRV(data, to)
			if got == nil {
				t.Fatalf("RewriteObjectRV(rv=%d->%d) failed on a valid encoding", from, to)
			}
			pod.Metadata.ResourceVersion = to
			want, err := codec.Marshal(pod)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("rv %d->%d: rewrite differs from re-encode", from, to)
			}
			// The input must be untouched.
			pod.Metadata.ResourceVersion = from
			orig, _ := codec.Marshal(pod)
			if !bytes.Equal(data, orig) {
				t.Fatalf("rv %d->%d: RewriteObjectRV modified its input", from, to)
			}
		}
	}
}

func TestRewriteObjectRVRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		{0xff},
		{0x08, 0x01}, // varint field 1, not a length-delimited metadata record
	} {
		if out := codec.RewriteObjectRV(data, 5); out != nil {
			t.Fatalf("RewriteObjectRV accepted malformed input %x", data)
		}
	}
}

func TestStatusOffsetRejectsGarbage(t *testing.T) {
	if _, ok := codec.StatusOffset([]byte{0xff, 0xff, 0xff}); ok {
		t.Fatal("StatusOffset accepted malformed input")
	}
	if off, ok := codec.StatusOffset(nil); !ok || off != 0 {
		t.Fatalf("StatusOffset(nil) = (%d, %v), want (0, true)", off, ok)
	}
}

// AppendPrefixWithRV — what the status splice runs — against RewriteObjectRV,
// the allocating implementation it replaced (export_test.go), over the same
// table: on whole encodings and on the metadata+spec prefix alone, appended
// after bytes already in the buffer, which it must leave alone.
func TestAppendPrefixWithRVMatchesRewrite(t *testing.T) {
	for _, from := range []int64{0, 1, 127, 128, 300, 1 << 20} {
		for _, to := range []int64{0, 1, 127, 128, 16384, 1 << 28} {
			data, err := codec.Marshal(statusPod(from))
			if err != nil {
				t.Fatal(err)
			}
			off, ok := codec.StatusOffset(data)
			if !ok {
				t.Fatal("StatusOffset failed on a valid encoding")
			}
			want := codec.RewriteObjectRV(data, to)
			for _, prefix := range [][]byte{data, data[:off]} {
				orig := append([]byte(nil), prefix...)
				got, ok := codec.AppendPrefixWithRV([]byte("kept"), prefix, to)
				if !ok {
					t.Fatalf("rv %d->%d: AppendPrefixWithRV failed on a valid prefix", from, to)
				}
				// The status record is untouched by the rewrite, so the rewritten
				// prefix is the rewritten whole minus that record.
				if wantPrefix := want[:len(want)-(len(data)-len(prefix))]; string(got) != "kept"+string(wantPrefix) {
					t.Fatalf("rv %d->%d: prefix of %d bytes differs from RewriteObjectRV's", from, to, len(prefix))
				}
				if !bytes.Equal(prefix, orig) {
					t.Fatalf("rv %d->%d: AppendPrefixWithRV modified its input", from, to)
				}
			}
		}
	}
}

// A resourceVersion growing from a one-byte to a two-byte varint can push the
// metadata record past 127 bytes, which grows the record's own length varint:
// the patch moves every later byte by two, not one.
func TestAppendPrefixWithRVGrowsMetadataLength(t *testing.T) {
	pod := statusPod(127)
	var data []byte
	for pad := 0; ; pad++ {
		if pad > 200 {
			t.Fatal("no name length puts the metadata record at 127 bytes")
		}
		pod.Metadata.Name = "web-" + strings.Repeat("x", pad)
		data, _ = codec.Marshal(pod)
		if data[0] == 0x0a && data[1] == 127 { // field 1, length-delimited, 127 bytes
			break
		}
	}
	off, _ := codec.StatusOffset(data)
	got, ok := codec.AppendPrefixWithRV(nil, data[:off], 128)
	if !ok {
		t.Fatal("AppendPrefixWithRV failed on a valid prefix")
	}
	pod.Metadata.ResourceVersion = 128
	want, _ := codec.Marshal(pod)
	if want[1] != 0x80 || want[2] != 0x01 {
		t.Fatalf("metadata length at rv 128 is % x, want the two-byte varint 80 01", want[1:3])
	}
	if !bytes.Equal(append(got, data[off:]...), want) {
		t.Fatal("patched prefix + status record differs from a re-encode at rv 128")
	}
	if len(got) != off+2 {
		t.Fatalf("prefix grew by %d bytes, want 2 (RV varint and metadata length varint)", len(got)-off)
	}
}

func TestAppendPrefixWithRVRejectsGarbage(t *testing.T) {
	for _, prefix := range [][]byte{
		nil,
		{0xff},
		{0x08, 0x01},             // varint field 1, not a length-delimited metadata record
		{0x0a, 0x05, 0x20},       // metadata record longer than the bytes that follow
		{0x0a, 0x02, 0x22, 0x00}, // resourceVersion with a length-delimited wire type
	} {
		got, ok := codec.AppendPrefixWithRV([]byte("kept"), prefix, 5)
		if ok || string(got) != "kept" {
			t.Fatalf("AppendPrefixWithRV(%x) = (%q, %v), want the buffer as it came and not-ok", prefix, got, ok)
		}
		if out := codec.RewriteObjectRV(prefix, 5); out != nil {
			t.Fatalf("the reference accepts %x: the two disagree", prefix)
		}
	}
}

// BenchmarkCodecPrefixWithRV measures what a status splice pays for its
// metadata+spec prefix: one copy into the caller's buffer with the committed
// revision patched in, instead of re-encoding the two sections.
func BenchmarkCodecPrefixWithRV(b *testing.B) {
	data, err := codec.Marshal(statusPod(41))
	if err != nil {
		b.Fatal(err)
	}
	off, _ := codec.StatusOffset(data)
	buf := make([]byte, 0, len(data)+16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := codec.AppendPrefixWithRV(buf, data[:off], int64(42+i%64)); !ok {
			b.Fatal("patch failed")
		}
	}
}

// BenchmarkCodecStatusSplice measures a status-only re-encode against the
// full Marshal it elides (BenchmarkCodecMarshal covers the mixed-kind case;
// this is the like-for-like pod comparison).
func BenchmarkCodecStatusSplice(b *testing.B) {
	pod := statusPod(41)
	full, err := codec.Marshal(pod)
	if err != nil {
		b.Fatal(err)
	}
	off, ok := codec.StatusOffset(full)
	if !ok {
		b.Fatal("StatusOffset failed")
	}
	arena := codec.NewArena()
	var buf []byte
	b.Run("splice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := arena.AppendStructField(append(buf[:0], full[:off]...), codec.ObjectStatusField, &pod.Status)
			if err != nil {
				b.Fatal(err)
			}
			buf = out
		}
	})
	b.Run("full-marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := arena.AppendMarshal(buf[:0], pod)
			if err != nil {
				b.Fatal(err)
			}
			buf = out
		}
	})
}
