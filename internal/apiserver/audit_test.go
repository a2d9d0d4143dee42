package apiserver

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

// auditRig is a single server on a one-member store whose values are capped
// at 1 KiB, with one pod "a" and one ConfigMap "cm" committed.
type auditRig struct {
	st  *store.Replicated
	srv *Server
	c   *Client
}

func newAuditRig(t *testing.T) auditRig {
	t.Helper()
	loop := sim.NewLoop(1)
	st := store.NewReplicated(loop, 1, &store.Options{MaxValueBytes: 1 << 10})
	srv := New(loop, st, nil)
	r := auditRig{st: st, srv: srv, c: srv.ClientFor("issuer")}
	if err := r.c.Create(testPod("a")); err != nil {
		t.Fatal(err)
	}
	if err := r.c.Create(configMap("cm", "v")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	return r
}

func configMap(name, value string) *spec.ConfigMap {
	cm := &spec.ConfigMap{Data: map[string]string{"k": value}}
	cm.Metadata.Namespace, cm.Metadata.Name = spec.DefaultNamespace, name
	return cm
}

// fresh returns a writable copy of the committed object kind/name.
func (r auditRig) fresh(t *testing.T, kind spec.Kind, name string) spec.Object {
	t.Helper()
	obj, err := r.c.Get(kind, spec.DefaultNamespace, name)
	if err != nil {
		t.Fatal(err)
	}
	return spec.CloneForWrite(obj)
}

// TestHandleCountsEachFailureOnce holds the audit's one accounting point: every
// error a request returns, wherever in the request path it arises, raises its
// issuer's ErrorsBy by exactly one, and nobody else's. A success, and a request
// to a crashed server, count nothing; a tampered request counts as errored or
// persisted by how it ended.
func TestHandleCountsEachFailureOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		want error // what the request fails with
		req  func(t *testing.T, r auditRig) error
	}{
		{"validation", ErrInvalid, func(t *testing.T, r auditRig) error {
			return r.c.Create(testPod(""))
		}},
		{"already-exists", ErrAlreadyExists, func(t *testing.T, r auditRig) error {
			return r.c.Create(testPod("a"))
		}},
		{"not-found", ErrNotFound, func(t *testing.T, r auditRig) error {
			return r.c.Update(testPod("missing"))
		}},
		{"delete-not-found", ErrNotFound, func(t *testing.T, r auditRig) error {
			return r.c.Delete(spec.KindPod, spec.DefaultNamespace, "missing")
		}},
		{"conflict", ErrConflict, func(t *testing.T, r auditRig) error {
			stale := r.fresh(t, spec.KindPod, "a")
			stale.Meta().ResourceVersion++
			return r.c.Update(stale)
		}},
		{"no-status-subresource", ErrBadRequest, func(t *testing.T, r auditRig) error {
			return r.c.UpdateStatus(r.fresh(t, spec.KindConfigMap, "cm"))
		}},
		{"admission-denial", ErrAdmission, func(t *testing.T, r auditRig) error {
			r.srv.admission = NewAdmissionChain(FailClosed, &AdmissionHook{
				Name:     "deny-all",
				Validate: func(spec.Object) error { return errors.New("denied") },
			})
			return r.c.Create(testPod("b"))
		}},
		{"request-channel-drop", ErrTimeout, func(t *testing.T, r auditRig) error {
			r.srv.SetRequestHook(func(*Message) Action { return Drop })
			return r.c.Create(testPod("b"))
		}},
		{"store-replica-lost", store.ErrReplicaDown, func(t *testing.T, r auditRig) error {
			r.st.DropReplica(0)
			return r.c.Create(testPod("b"))
		}},
		{"value-too-large", store.ErrTooLarge, func(t *testing.T, r auditRig) error {
			return r.c.Create(configMap("big", strings.Repeat("x", 2<<10)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newAuditRig(t)
			a := r.srv.Audit()
			before := a.ErrorsBy("issuer")
			if err := tc.req(t, r); !errors.Is(err, tc.want) {
				t.Fatalf("the request returned %v; the case needs it to fail with %v", err, tc.want)
			}
			if got := a.ErrorsBy("issuer") - before; got != 1 {
				t.Errorf("ErrorsBy(issuer) rose by %d, want 1", got)
			}
			if len(a.errByIdentity) != 1 {
				t.Errorf("errors counted against %v, want issuer alone", a.errByIdentity)
			}
			if got := a.TamperedErrored(); got != 0 {
				t.Errorf("TamperedErrored = %d for an untampered request", got)
			}
		})
	}

	t.Run("success", func(t *testing.T) {
		r := newAuditRig(t)
		a := r.srv.Audit()
		pod := r.fresh(t, spec.KindPod, "a")
		if err := r.c.UpdateStatus(pod); err != nil {
			t.Fatal(err)
		}
		if err := r.c.Create(testPod("b")); err != nil {
			t.Fatal(err)
		}
		if err := r.c.Delete(spec.KindConfigMap, spec.DefaultNamespace, "cm"); err != nil {
			t.Fatal(err)
		}
		if got := a.ErrorsBy("issuer"); got != 0 {
			t.Errorf("ErrorsBy(issuer) = %d after three successes, want 0", got)
		}
	})

	t.Run("server-down", func(t *testing.T) {
		r := newAuditRig(t)
		r.srv.SetDown(true)
		if err := r.c.Create(testPod("b")); !errors.Is(err, ErrTimeout) {
			t.Fatalf("a create on a crashed server returned %v, want %v", err, ErrTimeout)
		}
		if got := r.srv.Audit().ErrorsBy("issuer"); got != 0 {
			t.Errorf("a crashed server counted %d errors, want 0", got)
		}
	})

	t.Run("tampered", func(t *testing.T) {
		r := newAuditRig(t)
		a := r.srv.Audit()
		r.srv.SetRequestHook(func(m *Message) Action {
			m.Tampered = true
			return Pass
		})
		if err := r.c.Create(testPod("a")); err == nil {
			t.Fatal("a tampered create of an existing pod succeeded")
		}
		if a.TamperedErrored() != 1 || a.TamperedPersisted() != 0 || a.ErrorsBy("issuer") != 1 {
			t.Errorf("after a tampered request that errored: TamperedErrored %d, TamperedPersisted %d, ErrorsBy %d; want 1, 0, 1",
				a.TamperedErrored(), a.TamperedPersisted(), a.ErrorsBy("issuer"))
		}
		if err := r.c.Create(testPod("b")); err != nil {
			t.Fatal(err)
		}
		if a.TamperedErrored() != 1 || a.TamperedPersisted() != 1 || a.ErrorsBy("issuer") != 1 {
			t.Errorf("after a tampered request that committed: TamperedErrored %d, TamperedPersisted %d, ErrorsBy %d; want 1, 1, 1",
				a.TamperedErrored(), a.TamperedPersisted(), a.ErrorsBy("issuer"))
		}
	})
}
