package spec

import (
	"fmt"
	"testing"
	"unsafe"
)

func strData(s string) uintptr {
	return uintptr(unsafe.Pointer(unsafe.StringData(s)))
}

func TestKeyInterning(t *testing.T) {
	k1 := Key(KindPod, DefaultNamespace, "intern-key-web-1")
	if want := "/registry/Pod/default/intern-key-web-1"; k1 != want {
		t.Fatalf("Key = %q, want %q", k1, want)
	}
	k2 := Key(KindPod, DefaultNamespace, "intern-key-web-1")
	if strData(k1) != strData(k2) {
		t.Fatal("repeated Key calls returned distinct string instances")
	}
	// Distinct identities never conflate, including separator-ambiguous
	// ones ("a/b"+"c" vs "a"+"b/c" style).
	if Key(KindPod, "ns-a", "b-c") == Key(KindPod, "ns-a-b", "c") {
		t.Fatal("distinct identities interned to one key")
	}
	for i := 0; i < 300; i++ {
		name := fmt.Sprintf("intern-key-%d", i)
		if got := Key(KindNode, "", name); got != "/registry/Node//"+name {
			t.Fatalf("Key conflated distinct names at %d: %q", i, got)
		}
	}
	// A hit allocates nothing: the table is keyed by the triple, so the key
	// is never assembled just to be looked up.
	if allocs := testing.AllocsPerRun(100, func() {
		_ = Key(KindPod, DefaultNamespace, "intern-key-web-1")
	}); allocs != 0 {
		t.Fatalf("interned Key allocates %.1f per call, want 0", allocs)
	}
}

func BenchmarkKeyInterned(b *testing.B) {
	Key(KindPod, DefaultNamespace, "bench-key-web-1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Key(KindPod, DefaultNamespace, "bench-key-web-1")
	}
}
