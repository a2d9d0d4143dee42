package apiserver

import (
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

func newChecksumServer(t *testing.T) (*sim.Loop, *store.Store, *Server) {
	t.Helper()
	loop := sim.NewLoop(1)
	st := store.NewReplicated(loop, 1, nil)
	srv := New(loop, st, &Options{CriticalFieldChecksums: true})
	return loop, st.Replica(0), srv
}

func TestChecksumStampedOnWrite(t *testing.T) {
	loop, st, srv := newChecksumServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	kv, ok := st.Get(spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1"))
	if !ok {
		t.Fatal("pod not stored")
	}
	stored := spec.New(spec.KindPod)
	if err := codec.Unmarshal(kv.Bytes(), stored); err != nil {
		t.Fatal(err)
	}
	if stored.Meta().Annotations[ChecksumAnnotation] == "" {
		t.Fatal("write not stamped with a critical-field checksum")
	}
}

// The §VI-B redundancy code at work: a bit flip in a critical field between
// the server and the store is detected at read-back and the object removed
// (so its owner can rebuild it) instead of silently becoming cluster state.
func TestChecksumDetectsCriticalFieldCorruption(t *testing.T) {
	loop, st, srv := newChecksumServer(t)
	// Tamper in flight, after the checksum stamp: flip one label character.
	srv.SetStoreWriteHook(func(m *Message) Action {
		if m.Kind != spec.KindPod {
			return Pass
		}
		obj := spec.New(m.Kind)
		if err := codec.Unmarshal(m.Encoded(), obj); err != nil {
			return Pass
		}
		obj.Meta().Labels["app"] = "veb" // 'w' with its LSB flipped
		data, err := codec.Marshal(obj)
		if err != nil {
			return Pass
		}
		m.Data = data
		return Pass
	})
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(2 * time.Second)
	// The corrupted object must have been detected and deleted.
	if _, ok := st.Get(spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")); ok {
		t.Fatal("corrupted object survived checksum verification")
	}
	if srv.Audit().ChecksumFailures() == 0 {
		t.Fatal("checksum failure not counted")
	}
}

// Corruption of a NON-critical field is not covered by the redundancy code
// (the paper's point: the critical fields are <10% of the total, so the
// protection is cheap — and partial).
func TestChecksumIgnoresNonCriticalCorruption(t *testing.T) {
	loop, st, srv := newChecksumServer(t)
	srv.SetStoreWriteHook(func(m *Message) Action {
		if m.Kind != spec.KindPod {
			return Pass
		}
		obj := spec.New(m.Kind)
		if err := codec.Unmarshal(m.Encoded(), obj); err != nil {
			return Pass
		}
		obj.(*spec.Pod).Status.Reason = "corrupted-but-benign"
		data, err := codec.Marshal(obj)
		if err != nil {
			return Pass
		}
		m.Data = data
		return Pass
	})
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(2 * time.Second)
	if _, ok := st.Get(spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")); !ok {
		t.Fatal("object with non-critical corruption was deleted")
	}
	if srv.Audit().ChecksumFailures() != 0 {
		t.Fatal("non-critical corruption flagged by the checksum")
	}
}

func TestChecksumSurvivesLegitimateUpdates(t *testing.T) {
	loop, _, srv := newChecksumServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	pod := spec.CloneForWriteAs(obj.(*spec.Pod))
	pod.Metadata.Labels["extra"] = "fine"
	if err := c.Update(pod); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(2 * time.Second)
	obj, err = c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatalf("object unreadable after legitimate update: %v", err)
	}
	if obj.Meta().Labels["extra"] != "fine" {
		t.Fatal("legitimate update lost")
	}
	if srv.Audit().ChecksumFailures() != 0 {
		t.Fatal("legitimate update tripped the checksum")
	}
}

func TestChecksumAtRestCorruptionDetected(t *testing.T) {
	loop, st, srv := newChecksumServer(t)
	c := srv.ClientFor("test")
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	key := spec.Key(spec.KindPod, spec.DefaultNamespace, "web-1")
	st.CorruptAtRest(key, func(b []byte) []byte {
		obj := spec.New(spec.KindPod)
		if err := codec.Unmarshal(b, obj); err != nil {
			return b
		}
		obj.Meta().Labels["app"] = "veb"
		out, err := codec.Marshal(obj)
		if err != nil {
			return b
		}
		return out
	})
	// An apiserver restart re-reads the store: the hardware-fault-style
	// corruption is caught by the redundancy code.
	srv.Restart()
	loop.RunUntil(loop.Now() + 2*time.Second)
	if _, ok := st.Get(key); ok {
		t.Fatal("at-rest corruption of a critical field survived restart verification")
	}
	if srv.Audit().ChecksumFailures() == 0 {
		t.Fatal("at-rest corruption not counted")
	}
}
