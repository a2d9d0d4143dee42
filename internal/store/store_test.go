package store

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

func newTestStore(t *testing.T) (*sim.Loop, *Store) {
	t.Helper()
	loop := sim.NewLoop(1)
	return loop, New(loop, nil)
}

func TestPutGetDelete(t *testing.T) {
	_, s := newTestStore(t)
	rev, err := s.Put("/registry/Pod/default/a", spec.KindPod, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if rev != 1 {
		t.Fatalf("rev = %d, want 1", rev)
	}
	kv, ok := s.Get("/registry/Pod/default/a")
	if !ok || string(kv.Value) != "v1" || kv.Kind != spec.KindPod {
		t.Fatalf("Get = %+v ok=%v", kv, ok)
	}
	if !s.Delete("/registry/Pod/default/a") {
		t.Fatal("Delete = false")
	}
	if _, ok := s.Get("/registry/Pod/default/a"); ok {
		t.Fatal("Get after delete = ok")
	}
	if s.Delete("/registry/Pod/default/a") {
		t.Fatal("second Delete = true")
	}
}

func TestRevisionMonotone(t *testing.T) {
	_, s := newTestStore(t)
	var last int64
	for i := 0; i < 10; i++ {
		rev, err := s.Put("/k", spec.KindPod, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if rev <= last {
			t.Fatalf("revision not monotone: %d after %d", rev, last)
		}
		last = rev
	}
	s.Delete("/k")
	if s.Revision() <= last {
		t.Fatal("delete did not advance revision")
	}
}

func TestListPrefix(t *testing.T) {
	_, s := newTestStore(t)
	keys := []string{
		"/registry/Pod/default/b",
		"/registry/Pod/default/a",
		"/registry/Pod/kube-system/c",
		"/registry/Node//n1",
	}
	for _, k := range keys {
		if _, err := s.Put(k, spec.KindPod, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got := s.List("/registry/Pod/default/")
	if len(got) != 2 {
		t.Fatalf("List = %d entries, want 2", len(got))
	}
	if got[0].Key != "/registry/Pod/default/a" || got[1].Key != "/registry/Pod/default/b" {
		t.Fatalf("List order wrong: %v, %v", got[0].Key, got[1].Key)
	}
	if n := len(s.List("/registry/Pod/")); n != 3 {
		t.Fatalf("List(/registry/Pod/) = %d entries, want 3", n)
	}
}

func TestWatchDeliveryAndOrdering(t *testing.T) {
	loop, s := newTestStore(t)
	var events []Event
	s.Subscribe(func(ev Event) { events = append(events, ev) })
	if _, err := s.Put("/registry/Pod/default/a", spec.KindPod, []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("/registry/Pod/default/a", spec.KindPod, []byte("2")); err != nil {
		t.Fatal(err)
	}
	s.Delete("/registry/Pod/default/a")
	if _, err := s.Put("/registry/Node//n", spec.KindNode, []byte("n")); err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatal("watch delivered synchronously; must be async")
	}
	loop.RunUntil(time.Second)
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	if events[0].Type != EventPut || string(events[0].Value) != "1" {
		t.Fatalf("event 0 = %+v", events[0])
	}
	if events[1].Type != EventPut || string(events[1].Value) != "2" {
		t.Fatalf("event 1 = %+v", events[1])
	}
	if events[2].Type != EventDelete {
		t.Fatalf("event 2 = %+v", events[2])
	}
	if events[3].Type != EventPut || events[3].Kind != spec.KindNode {
		t.Fatalf("event 3 = %+v", events[3])
	}
	for i := 1; i < len(events); i++ {
		if events[i-1].Revision >= events[i].Revision {
			t.Fatal("events out of revision order")
		}
	}
}

func TestWatchCancel(t *testing.T) {
	loop, s := newTestStore(t)
	var n int
	cancel := s.Subscribe(func(Event) { n++ })
	if _, err := s.Put("/a", spec.KindPod, []byte("1")); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := s.Put("/b", spec.KindPod, []byte("2")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	if n != 0 {
		t.Fatalf("a cancelled subscription received %d events (cancel must also drop in-flight)", n)
	}
}

func TestQuotaStallsWrites(t *testing.T) {
	loop := sim.NewLoop(1)
	s := New(loop, &Options{QuotaBytes: 100})
	if _, err := s.Put("/a", spec.KindPod, make([]byte, 90)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("/b", spec.KindPod, make([]byte, 90)); err != nil {
		t.Fatal(err) // this write crosses the quota but was admitted below it
	}
	if !s.QuotaExceeded() {
		t.Fatal("QuotaExceeded = false")
	}
	if _, err := s.Put("/c", spec.KindPod, []byte("x")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Put past quota err = %v, want ErrNoSpace", err)
	}
	// Deletes still work, and free enough space to resume writes.
	if !s.Delete("/a") || !s.Delete("/b") {
		t.Fatal("Delete failed under quota pressure")
	}
	if _, err := s.Put("/c", spec.KindPod, []byte("x")); err != nil {
		t.Fatalf("Put after freeing err = %v", err)
	}
}

func TestMaxValueSize(t *testing.T) {
	loop := sim.NewLoop(1)
	s := New(loop, &Options{MaxValueBytes: 10})
	if _, err := s.Put("/a", spec.KindPod, make([]byte, 11)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestCorruptAtRestIsSilent(t *testing.T) {
	loop, s := newTestStore(t)
	var n int
	s.Subscribe(func(Event) { n++ })
	if _, err := s.Put("/a", spec.KindPod, []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	rev := s.Revision()
	if !s.CorruptAtRest("/a", func(b []byte) []byte { b[0] ^= 0xff; return b }) {
		t.Fatal("CorruptAtRest = false")
	}
	loop.RunUntil(2 * time.Second)
	if s.Revision() != rev {
		t.Fatal("at-rest corruption bumped the revision")
	}
	if n != 1 {
		t.Fatalf("at-rest corruption notified the subscriber (n=%d)", n)
	}
	kv, _ := s.Get("/a")
	if kv.Value[0] != 0xff {
		t.Fatal("at-rest corruption not visible on read")
	}
	if s.CorruptAtRest("/missing", func(b []byte) []byte { return b }) {
		t.Fatal("CorruptAtRest on missing key = true")
	}
}

// TestValueImmutability covers the copy-on-write contract that replaced the
// old copy-per-read behavior: Put severs the caller's buffer, overwrites
// install a fresh array (readers of the old revision keep the old bytes), and
// CorruptAtRest never touches an array readers may hold.
func TestValueImmutability(t *testing.T) {
	_, s := newTestStore(t)
	buf := []byte{1, 2, 3}
	if _, err := s.Put("/a", spec.KindPod, buf); err != nil {
		t.Fatal(err)
	}
	// The caller's (possibly pooled) buffer must not alias the stored value.
	buf[0] = 99
	kv, _ := s.Get("/a")
	if kv.Value[0] != 1 {
		t.Fatal("Put retained the caller's buffer")
	}
	// Overwrites replace the backing array: a reader holding the previous
	// revision keeps a consistent view.
	old := kv.Value
	if _, err := s.Put("/a", spec.KindPod, []byte{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if old[0] != 1 {
		t.Fatal("overwrite scribbled over the previous revision's array")
	}
	cur, _ := s.Get("/a")
	if cur.Value[0] != 7 {
		t.Fatal("overwrite not visible")
	}
	// CorruptAtRest replaces, never mutates in place.
	held, _ := s.Get("/a")
	s.CorruptAtRest("/a", func(b []byte) []byte { b[0] = 0xff; return b })
	if held.Value[0] != 7 {
		t.Fatal("CorruptAtRest mutated an array a reader held")
	}
	after, _ := s.Get("/a")
	if after.Value[0] != 0xff {
		t.Fatal("CorruptAtRest not visible on a fresh read")
	}
}

func TestSizeAccounting(t *testing.T) {
	_, s := newTestStore(t)
	if s.SizeBytes() != 0 {
		t.Fatal("empty store has nonzero size")
	}
	if _, err := s.Put("/ab", spec.KindPod, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	want := int64(len("/ab") + 10)
	if s.SizeBytes() != want {
		t.Fatalf("size = %d, want %d", s.SizeBytes(), want)
	}
	if _, err := s.Put("/ab", spec.KindPod, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	want = int64(len("/ab") + 4)
	if s.SizeBytes() != want {
		t.Fatalf("size after overwrite = %d, want %d", s.SizeBytes(), want)
	}
	s.Delete("/ab")
	if s.SizeBytes() != 0 {
		t.Fatalf("size after delete = %d, want 0", s.SizeBytes())
	}
}

// Property: under any sequence of puts and deletes, the store's size
// accounting matches the sum of live keys and values exactly, and revisions
// strictly increase.
func TestPropertySizeAccounting(t *testing.T) {
	type op struct {
		Key    uint8
		Del    bool
		ValLen uint8
	}
	prop := func(ops []op) bool {
		loop := sim.NewLoop(1)
		s := New(loop, &Options{QuotaBytes: 1 << 30})
		live := make(map[string]int)
		var lastRev int64
		for _, o := range ops {
			key := "/k/" + string(rune('a'+o.Key%16))
			if o.Del {
				deleted := s.Delete(key)
				if deleted != (live[key] > 0 || hasKey(live, key)) {
					return false
				}
				delete(live, key)
			} else {
				val := make([]byte, int(o.ValLen))
				rev, err := s.Put(key, spec.KindPod, val)
				if err != nil {
					return false
				}
				if rev <= lastRev {
					return false
				}
				lastRev = rev
				live[key] = len(val)
			}
		}
		var want int64
		for k, v := range live {
			want += int64(len(k)) + int64(v)
		}
		return s.SizeBytes() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func hasKey(m map[string]int, k string) bool {
	_, ok := m[k]
	return ok
}

// A subscription is known by its address: an event goes to the subscription
// it was committed under, and only while that is still the store's.
func TestSubscriptionIsKnownByAddress(t *testing.T) {
	put := func(s *Store, key string) {
		t.Helper()
		if _, err := s.Put(key, spec.KindPod, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}

	// A cancelled subscription hears nothing still in flight to it.
	loop, s := newTestStore(t)
	n := 0
	cancel := s.Subscribe(func(Event) { n++ })
	put(s, "/a")
	put(s, "/b")
	cancel()
	loop.RunUntil(time.Second)
	if n != 0 {
		t.Errorf("a subscription cancelled with two events in flight heard %d", n)
	}

	// A resubscription made inside a delivery hears the next commit: not the
	// one being delivered, nor those committed under its predecessor.
	loop, s = newTestStore(t)
	var heard []string
	s.Subscribe(func(ev Event) {
		heard = append(heard, "a "+ev.Key)
		if len(heard) == 1 {
			s.Subscribe(func(ev Event) { heard = append(heard, "b "+ev.Key) })
		}
	})
	put(s, "/1")
	put(s, "/2")
	loop.RunUntil(time.Second)
	put(s, "/3")
	loop.RunUntil(2 * time.Second)
	if want := []string{"a /1", "b /3"}; !reflect.DeepEqual(heard, want) {
		t.Errorf("resubscribed while delivering /1 of /1, /2: heard %v, want %v", heard, want)
	}

	// A cancel from before a Reset leaves the subscription made after it alone.
	loop, s = newTestStore(t)
	stale := s.Subscribe(func(Event) { t.Error("a subscription from before the Reset heard an event") })
	s.Reset()
	n = 0
	s.Subscribe(func(Event) { n++ })
	stale()
	put(s, "/a")
	loop.RunUntil(time.Second)
	if n != 1 {
		t.Errorf("after a stale cancel the live subscription heard %d events, want 1", n)
	}
}
