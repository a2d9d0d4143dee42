// Package election implements lease-based leader election, used by the
// controller manager and the scheduler so that only one replica is active at
// a time (§II-D).
//
// The lease is an ordinary resource living in the data store, which makes it
// an injection target like any other: corrupting the holder identity or the
// renew timestamp can silently depose a leader, producing the paper's
// "Scheduler or Kcm unable to obtain a leadership role" Stall failures.
package election

import (
	"errors"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// The kube-controller-manager's lease timings.
const (
	// leaseDuration is how long a lease is valid after renewal.
	leaseDuration = 15 * time.Second
	// renewInterval is how often the leader renews.
	renewInterval = 10 * time.Second
	// retryInterval is how often a non-leader retries acquisition.
	retryInterval = 2 * time.Second
)

// Config parameterizes an Elector.
type Config struct {
	// LeaseName identifies the contested lease in kube-system.
	LeaseName string
	// Identity is this candidate's holder identity.
	Identity string
	// OnStartedLeading runs when leadership is acquired.
	OnStartedLeading func()
	// OnStoppedLeading runs when leadership is lost.
	OnStoppedLeading func()
}

func (c Config) withDefaults() Config {
	if c.OnStartedLeading == nil {
		c.OnStartedLeading = func() {}
	}
	if c.OnStoppedLeading == nil {
		c.OnStoppedLeading = func() {}
	}
	return c
}

// Elector campaigns for a lease and tracks leadership.
type Elector struct {
	loop    *sim.Loop
	client  *apiserver.Client
	cfg     Config
	leading bool
	ticker  sim.Timer
	stopped bool
	// lastContact is the loop time of the last successful lease read; a
	// leader out of contact longer than leaseDuration self-demotes.
	lastContact time.Duration
}

// New creates an elector; call Start to begin campaigning.
func New(loop *sim.Loop, client *apiserver.Client, cfg Config) *Elector {
	return &Elector{loop: loop, client: client, cfg: cfg.withDefaults()}
}

// Reset returns the elector to the state New left it in: not leading, not
// campaigning. Nothing is released and no callback runs — the loop its ticker
// was scheduled on and the lease it may have held are being reset with it.
func (e *Elector) Reset() {
	e.leading, e.stopped = false, false
	e.ticker = sim.Timer{}
	e.lastContact = 0
}

// Start begins the campaign loop.
func (e *Elector) Start() {
	e.stopped = false
	e.tick()
	e.ticker = e.loop.Every(retryInterval, e.tick)
}

// Stop halts campaigning cleanly; a leading elector releases its lease
// (clears the holder identity) so other candidates take over at their next
// retry tick instead of waiting out the full lease duration. A crash is
// modelled by Abandon, which leaves the lease to expire.
func (e *Elector) Stop() {
	wasLeading := e.leading
	e.Abandon()
	if wasLeading {
		e.release(3)
	}
}

func (e *Elector) release(attempts int) {
	obj, err := e.client.Get(spec.KindLease, spec.SystemNamespace, e.cfg.LeaseName)
	if err != nil {
		return // control plane unreachable: the lease expires like a crash
	}
	lease, ok := obj.(*spec.Lease)
	if !ok || lease.Spec.HolderIdentity != e.cfg.Identity {
		return
	}
	lease = spec.CloneForWriteAs(lease) // sealed cache reference
	lease.Spec.HolderIdentity = ""
	if err := e.client.Update(lease); errors.Is(err, apiserver.ErrConflict) && attempts > 1 {
		// The watch cache can trail the store by a watch latency right after
		// a renewal; retry once it catches up.
		e.loop.After(5*time.Millisecond, func() { e.release(attempts - 1) })
	}
}

// Abandon halts campaigning without touching the lease — crash semantics:
// for everyone else the lease only expires after leaseDuration.
func (e *Elector) Abandon() {
	e.stopped = true
	e.ticker.Stop()
	if e.leading {
		e.leading = false
		e.cfg.OnStoppedLeading()
	}
}

// IsLeader reports whether this elector currently holds the lease.
func (e *Elector) IsLeader() bool { return e.leading }

func (e *Elector) tick() {
	if e.stopped {
		return
	}
	nowMillis := e.loop.Time().UnixMilli()
	obj, err := e.client.Get(spec.KindLease, spec.SystemNamespace, e.cfg.LeaseName)
	switch {
	case errors.Is(err, apiserver.ErrNotFound):
		lease := &spec.Lease{
			Metadata: spec.ObjectMeta{Name: e.cfg.LeaseName, Namespace: spec.SystemNamespace},
			Spec: spec.LeaseSpec{
				HolderIdentity: e.cfg.Identity,
				DurationSecs:   int64(leaseDuration / time.Second),
				RenewMillis:    nowMillis,
			},
		}
		if err := e.client.Create(lease); err == nil {
			e.becomeLeader()
		}
		return
	case err != nil:
		// The control plane is unavailable: a leader that cannot renew must
		// assume it lost the lease once the lease duration elapses — the
		// client-go contract that keeps two leaders from acting at once when
		// this replica's apiserver is the one that crashed.
		if e.leading && e.loop.Now()-e.lastContact > leaseDuration {
			e.loseLeadership()
		}
		return
	}
	e.lastContact = e.loop.Now()

	lease, ok := obj.(*spec.Lease)
	if !ok {
		return
	}
	// An empty holder identity is a released lease: immediately contestable.
	expired := lease.Spec.HolderIdentity == "" ||
		nowMillis-lease.Spec.RenewMillis > leaseDuration.Milliseconds()
	switch {
	case lease.Spec.HolderIdentity == e.cfg.Identity:
		// Renew on the renew interval, not on every retry tick: holding the
		// lease needs no write while the last renewal is fresh (the
		// kube-controller-manager renews every 10 s on a 15 s lease). A
		// corrupted holder identity makes this branch unreachable: the
		// component silently loses leadership.
		if nowMillis-lease.Spec.RenewMillis < renewInterval.Milliseconds() {
			e.becomeLeader()
			return
		}
		lastRenew := lease.Spec.RenewMillis
		lease = spec.CloneForWriteAs(lease) // sealed cache reference
		lease.Spec.RenewMillis = nowMillis
		if err := e.client.Update(lease); err == nil {
			e.becomeLeader()
		} else if errors.Is(err, apiserver.ErrConflict) {
			// Someone rewrote the lease under us: resolve next tick.
			return
		} else if nowMillis-lastRenew > leaseDuration.Milliseconds() {
			// Renewals have failed for a full lease duration — e.g. our
			// apiserver's store replica lost quorum, so reads still answer
			// from its cache but writes bounce. For the rest of the cluster
			// the lease has expired; assume we lost it (client-go's renew
			// deadline), so the healthy side's standby is the only leader.
			e.loseLeadership()
		}
	case expired:
		lease = spec.CloneForWriteAs(lease) // sealed cache reference
		lease.Spec.HolderIdentity = e.cfg.Identity
		lease.Spec.RenewMillis = nowMillis
		if err := e.client.Update(lease); err == nil {
			e.becomeLeader()
		}
	default:
		// Someone else holds a fresh lease.
		e.loseLeadership()
	}
}

func (e *Elector) becomeLeader() {
	if !e.leading {
		e.leading = true
		e.cfg.OnStartedLeading()
	}
}

func (e *Elector) loseLeadership() {
	if e.leading {
		e.leading = false
		e.cfg.OnStoppedLeading()
	}
}
