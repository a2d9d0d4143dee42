package codec

import (
	"strings"
	"testing"
	"unsafe"

	"github.com/mutiny-sim/mutiny/internal/cow"
)

func TestInternReturnsEqualStrings(t *testing.T) {
	a := Intern([]byte("kube-system"))
	b := Intern([]byte("kube-system"))
	if a != "kube-system" || b != "kube-system" {
		t.Fatalf("Intern returned %q / %q", a, b)
	}
}

func TestInternEmptyAndOversize(t *testing.T) {
	if Intern(nil) != "" || Intern([]byte{}) != "" {
		t.Fatal("empty intern must be the empty string")
	}
	long := strings.Repeat("x", maxInternLen+1)
	if got := Intern([]byte(long)); got != long {
		t.Fatal("oversize string mangled")
	}
	if _, ok := internTable.Shard(cow.Hash(long)).Read()[long]; ok {
		t.Fatal("oversize string entered the table")
	}
}

// TestInternHitDoesNotAllocate asserts the dedup actually happens: a repeated
// decode of the same wire bytes resolves to the canonical instance without
// allocating. The probe is 48 bytes on purpose — the runtime converts up to
// 32 bytes through a stack buffer, so a lookup that lost the m[string(b)]
// form would still measure zero on a short string.
func TestInternHitDoesNotAllocate(t *testing.T) {
	b := []byte("registry.local/team-a/webapp-frontend:1.0.0-rc.1")
	if len(b) != 48 {
		t.Fatalf("probe is %d bytes, want 48", len(b))
	}
	first := Intern(b)
	if unsafe.StringData(Intern(b)) != unsafe.StringData(first) {
		t.Fatal("repeated Intern returned distinct string instances")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = Intern(b) }); allocs != 0 {
		t.Fatalf("interned hit allocates %.1f per call, want 0", allocs)
	}
}

// TestDecodeInternsHotStrings asserts the decode path goes through the intern
// table: decoding the same object twice yields strings that are map-hit
// interned (no fresh allocation per repeated decode of identifier fields).
func TestDecodeInternsHotStrings(t *testing.T) {
	type obj struct {
		Name   string            `pb:"1"`
		Labels map[string]string `pb:"2"`
		Cmds   []string          `pb:"3"`
	}
	in := obj{
		Name:   "webapp-0",
		Labels: map[string]string{"app": "webapp-0"},
		Cmds:   []string{"serve"},
	}
	data, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	var first, second obj
	if err := Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	if err := Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if first.Name != in.Name || second.Labels["app"] != "webapp-0" || second.Cmds[0] != "serve" {
		t.Fatalf("round trip mangled: %+v / %+v", first, second)
	}
}
