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
	loop   *sim.Loop
	client *apiserver.Client
	cfg    Config
	// identity is the holder identity campaigned under: cfg.Identity until a
	// Restart names another, and again after Reset.
	identity string
	leading  bool
	ticker   sim.Timer
	stopped  bool
	// lastContact is the loop time of the last successful lease read; a
	// leader out of contact longer than leaseDuration self-demotes.
	lastContact time.Duration
}

// New creates an elector; call Start to begin campaigning.
func New(loop *sim.Loop, client *apiserver.Client, cfg Config) *Elector {
	return &Elector{loop: loop, client: client, cfg: cfg.withDefaults(), identity: cfg.Identity}
}

// Reset returns the elector to the state New left it in: not leading, not
// campaigning, under the identity New was given. Nothing is released and no
// callback runs — the loop its ticker was scheduled on and the lease it may
// have held are being reset with it.
func (e *Elector) Reset() {
	e.identity = e.cfg.Identity
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

// Abandon halts campaigning without touching the lease — a crash, the one way
// an elector stops: for everyone else the lease only expires after
// leaseDuration.
func (e *Elector) Abandon() {
	e.stopped = true
	e.ticker.Stop()
	e.loseLeadership()
}

// Restart models a crashed candidate coming back: it abandons now and, after
// delay, campaigns afresh under identity. A lease it held under its old
// identity is not its own any more, so the lease must expire first.
func (e *Elector) Restart(delay time.Duration, identity string) {
	e.Abandon()
	e.loop.After(delay, func() {
		e.identity, e.lastContact = identity, 0
		e.Start()
	})
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
				HolderIdentity: e.identity,
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
	// An empty holder (a set-value injection's "") is contestable at once.
	expired := lease.Spec.HolderIdentity == "" ||
		nowMillis-lease.Spec.RenewMillis > leaseDuration.Milliseconds()
	switch {
	case lease.Spec.HolderIdentity == e.identity:
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
		lease.Spec.HolderIdentity = e.identity
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
