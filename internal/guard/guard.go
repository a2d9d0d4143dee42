// Package guard implements the failure-mitigation strategy the paper
// proposes in §VI-B:
//
//	"updates to critical fields and resources should be logged. [...] Upon a
//	change, system behavior should be monitored to detect any degradation of
//	the system's health, so it is possible to roll back changes to critical
//	fields."
//
// The guard watches every write crossing the apiserver→store channel,
// journals changes to critical fields (the dependency-tracking, identity and
// networking fields of §V-C2), and after each such change observes cluster
// health for a probation window. If the cluster degrades — uncontrolled pod
// creation, a stuck control plane, failing network pods, dying DNS — the
// guard rolls the changed field back to its previous value.
//
// It is deliberately a *mitigation*, not a prevention: the corrupted value
// does reach the store and the failure begins to unfold; the guard bounds
// the blast radius. The mitigation benchmark compares the same injection
// with and without the guard.
package guard

import (
	"fmt"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// Defaults for the probation monitor.
const (
	// probation is how long the guard watches cluster health after a
	// critical-field change before declaring it benign.
	probation = 15 * time.Second
	// checkPeriod is the health sampling interval during probation.
	checkPeriod = 2 * time.Second
	// spawnSlack is the pod-creation budget during a probation window;
	// exceeding it counts as uncontrolled replication.
	spawnSlack = 12
)

// Change is one journaled critical-field update.
type Change struct {
	At       time.Duration
	Kind     spec.Kind
	Instance string // namespace/name
	Field    string
	Old, New any
	Source   string
	// RolledBack is set if the guard reverted this change.
	RolledBack bool
	// Reason records why the rollback fired.
	Reason string
}

// Health is the guard's view of cluster health, provided by the embedder
// (the cluster wires its own probes in).
type Health struct {
	ControlPlaneResponsive bool
	NetworkPodsFailing     bool
	DNSHealthy             bool
	ActivePods             int
}

// Guard journals critical-field changes and rolls back the ones that are
// followed by cluster degradation.
type Guard struct {
	loop   *sim.Loop
	client *apiserver.Client
	health func() Health

	Journal []Change

	// watching maps instance keys to their pre-change snapshots during
	// probation.
	pending map[string]*probationWatch

	rollbacks int
}

type probationWatch struct {
	change   Change
	snapshot spec.Object // the object before the change
	baseline Health
	timer    sim.Timer
	checks   int
}

// New builds a guard. health supplies the cluster's current vital signs.
func New(loop *sim.Loop, eps *apiserver.Endpoints, health func() Health) *Guard {
	return &Guard{
		loop:    loop,
		client:  eps.ClientFor("field-guard"),
		health:  health,
		pending: make(map[string]*probationWatch),
	}
}

// Reset returns the guard to the state New left it in: empty journal, nothing
// on probation, no rollback counted. The probation timers went with the
// loop's events.
func (g *Guard) Reset() {
	g.Journal = nil
	clear(g.pending)
	g.rollbacks = 0
}

// Rollbacks reports how many changes the guard reverted.
func (g *Guard) Rollbacks() int { return g.rollbacks }

// Hook returns the apiserver→store hook. Chain it with an injector's hook if
// both are in use: the guard must observe the channel after the injector so
// it sees exactly what the store will see.
func (g *Guard) Hook(next apiserver.Hook) apiserver.Hook {
	return func(m *apiserver.Message) apiserver.Action {
		if next != nil {
			if next(m) == apiserver.Drop {
				return apiserver.Drop
			}
		}
		g.observe(m)
		return apiserver.Pass
	}
}

// CriticalField reports whether a field path belongs to the §V-C2 critical
// set: dependency-tracking fields, identity fields, and networking fields.
func CriticalField(path string) bool { return spec.CriticalFieldPath(path) }

// observe diffs the incoming write against the currently stored object and
// journals changes to critical fields.
func (g *Guard) observe(m *apiserver.Message) {
	if m.Verb != apiserver.VerbUpdate && m.Verb != apiserver.VerbUpdateStatus {
		return // creations establish fields; only changes are guarded
	}
	if len(m.Data) == 0 {
		return
	}
	cur, err := g.client.Get(m.Kind, m.Namespace, m.Name)
	if err != nil {
		return
	}
	incoming := spec.New(m.Kind)
	if err := codec.Unmarshal(m.Data, incoming); err != nil {
		return
	}
	instance := m.Namespace + "/" + m.Name
	for _, f := range codec.Fields(incoming) {
		if !CriticalField(f.Path) {
			continue
		}
		newVal, err := codec.Get(incoming, f.Path)
		if err != nil {
			continue
		}
		oldVal, err := codec.Get(cur, f.Path)
		if err != nil {
			// The field did not exist before (a new label/map entry):
			// journal it against the type's zero value so additions are
			// guarded too.
			oldVal = zeroLike(newVal)
		}
		if oldVal == newVal {
			continue
		}
		change := Change{
			At: g.loop.Now(), Kind: m.Kind, Instance: instance,
			Field: f.Path, Old: oldVal, New: newVal, Source: m.Source,
		}
		g.Journal = append(g.Journal, change)
		g.startProbation(change, cur)
	}
}

func (g *Guard) startProbation(change Change, snapshot spec.Object) {
	key := string(change.Kind) + "\x00" + change.Instance + "\x00" + change.Field
	if existing, ok := g.pending[key]; ok {
		existing.timer.Stop()
	}
	w := &probationWatch{change: change, snapshot: snapshot, baseline: g.health()}
	g.pending[key] = w
	var tick func()
	tick = func() {
		w.checks++
		if reason, degraded := g.degraded(w); degraded {
			g.rollback(key, w, reason)
			return
		}
		if time.Duration(w.checks)*checkPeriod >= probation {
			delete(g.pending, key) // probation passed: change is benign
			return
		}
		w.timer = g.loop.After(checkPeriod, tick)
	}
	w.timer = g.loop.After(checkPeriod, tick)
}

func (g *Guard) degraded(w *probationWatch) (string, bool) {
	h := g.health()
	switch {
	case !h.ControlPlaneResponsive && w.baseline.ControlPlaneResponsive:
		return "control plane stopped responding", true
	case h.NetworkPodsFailing && !w.baseline.NetworkPodsFailing:
		return "network pods failing", true
	case !h.DNSHealthy && w.baseline.DNSHealthy:
		return "cluster DNS went down", true
	case h.ActivePods > w.baseline.ActivePods+spawnSlack:
		return fmt.Sprintf("uncontrolled pod creation (%d → %d)", w.baseline.ActivePods, h.ActivePods), true
	default:
		return "", false
	}
}

// rollback restores the pre-change value of the guarded field.
func (g *Guard) rollback(key string, w *probationWatch, reason string) {
	delete(g.pending, key)
	for i := range g.Journal {
		j := &g.Journal[i]
		if j.At == w.change.At && j.Field == w.change.Field && j.Instance == w.change.Instance {
			j.RolledBack = true
			j.Reason = reason
		}
	}
	ns, name := splitInstance(w.change.Instance)
	cur, err := g.client.Get(w.change.Kind, ns, name)
	if err != nil {
		// The object is gone; recreate it from the snapshot (a deleted
		// networking resource is exactly the outage case).
		restored := w.snapshot.Clone()
		restored.Meta().ResourceVersion = 0
		restored.Meta().UID = ""
		if g.client.Create(restored) == nil {
			g.rollbacks++
		}
		return
	}
	cur = spec.CloneForWrite(cur) // sealed cache reference
	if err := codec.Set(cur, w.change.Field, w.change.Old); err != nil {
		return
	}
	if g.client.Update(cur) == nil {
		g.rollbacks++
	}
}

func zeroLike(v any) any {
	switch v.(type) {
	case int64:
		return int64(0)
	case bool:
		return false
	default:
		return ""
	}
}

func splitInstance(instance string) (ns, name string) {
	for i := 0; i < len(instance); i++ {
		if instance[i] == '/' {
			return instance[:i], instance[i+1:]
		}
	}
	return "", instance
}
