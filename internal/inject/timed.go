package inject

import (
	"fmt"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
)

// Timed faults are the fault models that strike the platform itself at a
// point on the simulation clock instead of a message in flight. They all run
// through one arm → fire → heal path; what distinguishes them is one row of
// the axes table below, plus the family the row belongs to.

// Family groups the fault models by the part of the platform they act on.
// The zero Family is the paper's message-channel faults.
type Family int

// Families of timed faults, in report order.
const (
	// FamilyControlPlane faults hit one replica of the HA control plane;
	// Injection.Replica indexes it.
	FamilyControlPlane Family = iota + 1
	// FamilyAdmission faults hit one hook of the admission webhook chain;
	// Injection.Replica indexes it and Injection.Policy fixes the chain-wide
	// failure policy for the experiment.
	FamilyAdmission
	// FamilyTopology faults hit one zone of the cloud-edge network;
	// Injection.Replica indexes it and Injection.Value carries its name.
	FamilyTopology
)

// TimedFamilies lists the families of timed faults in report order.
func TimedFamilies() []Family {
	return []Family{FamilyControlPlane, FamilyAdmission, FamilyTopology}
}

// String returns the family's heading in the per-injection-type tables.
func (f Family) String() string { return families[f].title }

// Family returns the family of a timed fault type, and the zero Family for
// the message-channel fault models.
func (t FaultType) Family() Family {
	if ax := axisOf(t); ax != nil {
		return ax.family
	}
	return 0
}

// TimedFaults lists a family's fault axes in table order.
func TimedFaults(f Family) []FaultType {
	var out []FaultType
	for i := range axes {
		if axes[i].family == f {
			out = append(out, axes[i].fault)
		}
	}
	return out
}

// Platform is the cluster as the timed faults see it: how many instances each
// family can address, and one method per fault axis that applies the fault to
// one instance or undoes it. Implemented by *cluster.Cluster (the injector
// cannot import it — the cluster imports the injector) and by a fake in this
// package's tests.
type Platform interface {
	Replicas() int
	SetAPIServerDown(replica int, down bool)
	SetMasterIsolated(replica int, isolated bool)
	SetStoreReplicaLost(replica int, lost bool)

	// Admission returns the webhook chain, nil when no hooks are configured.
	Admission() *apiserver.AdmissionChain

	// Zones is 1 on a flat network.
	Zones() int
	ZoneName(i int) string
	SetZoneLink(zone string, up bool)
	SetZonePartitioned(zone string, cut bool)
	SetZoneNodesDown(zone string, down bool)
}

// family is what the fault axes of one Family share.
type family struct {
	// name prefixes Injection.Label and Report.Instance; title heads the
	// family's rows in the per-injection-type tables.
	name, title string
	// targets counts the instances the family can address on p — replicas,
	// hooks, zones. Zero means the cluster has no such part (no admission
	// chain, a flat network): the fault is not armed.
	targets func(p Platform) int
	// where renders the target for Injection.Label.
	where func(in Injection) string
	// prepare, when set, configures the platform for the experiment at arm
	// time, before anything fires.
	prepare func(p Platform, in *Injection)
}

var families = [...]family{
	FamilyControlPlane: {
		name: "control-plane", title: "Control plane",
		targets: Platform.Replicas,
		where:   func(in Injection) string { return fmt.Sprintf("replica=%d", in.Replica) },
	},
	FamilyAdmission: {
		name: "admission", title: "Admission",
		targets: func(p Platform) int {
			if chain := p.Admission(); chain != nil {
				return chain.HookCount()
			}
			return 0
		},
		where: func(in Injection) string {
			policy := in.Policy
			if policy == "" {
				policy = "configured"
			}
			return fmt.Sprintf("hook=%d policy=%s", in.Replica, policy)
		},
		// The policy override is part of the experiment's configuration, not
		// of the fault: it applies from arming, so the chain is already in
		// the experiment's regime when the fault fires (and stays inert while
		// every hook is healthy).
		prepare: func(p Platform, in *Injection) {
			p.Admission().SetFailurePolicy(apiserver.FailurePolicy(in.Policy))
		},
	},
	FamilyTopology: {
		name: "topology", title: "Topology",
		targets: func(p Platform) int {
			if z := p.Zones(); z >= 2 {
				return z
			}
			return 0
		},
		where: func(in Injection) string { return fmt.Sprintf("zone=%v", in.Value) },
	},
}

// axis is one timed fault model: one row of the table every layer above the
// injector reads — String and Label here, the campaign generators' axis
// lists, the aggregate's grouping, and the report's window tables.
type axis struct {
	fault  FaultType
	name   string
	family Family
	// instance names target i for Report.Instance (after the family name).
	instance func(p Platform, i int) string
	// set applies the fault to target i (on) or undoes it (off).
	set func(p Platform, i int, on bool)
	// flap, when positive, makes the fault intermittent: after firing it
	// goes off and on again every flap period until healed for good.
	flap time.Duration
}

// edgeFlapPeriod is the half-period of the edge-link flap. Far below the
// node-lifecycle grace period, so the flap never escalates to taints or
// eviction — the disruption stays a pure data-plane phenomenon.
const edgeFlapPeriod = 2 * time.Second

var axes = [...]axis{
	{FaultAPIServerCrash, "apiserver-crash", FamilyControlPlane, numbered("apiserver"), Platform.SetAPIServerDown, 0},
	{FaultMasterPartition, "master-partition", FamilyControlPlane, numbered("master"), Platform.SetMasterIsolated, 0},
	{FaultStoreLoss, "store-loss", FamilyControlPlane, numbered("store"), Platform.SetStoreReplicaLost, 0},

	{FaultWebhookDown, "webhook-down", FamilyAdmission, hookName,
		func(p Platform, i int, on bool) { p.Admission().SetWebhookDown(i, on) }, 0},
	{FaultWebhookLatency, "webhook-latency", FamilyAdmission, hookName,
		func(p Platform, i int, on bool) { p.Admission().SetWebhookSlow(i, on) }, 0},
	{FaultWebhookSelector, "webhook-selector", FamilyAdmission, hookName,
		func(p Platform, i int, on bool) { p.Admission().SetSelectorBroken(i, on) }, 0},
	{FaultWebhookPolicy, "webhook-policy", FamilyAdmission, hookName,
		func(p Platform, i int, on bool) { p.Admission().SetPolicyDropped(i, on) }, 0},

	{FaultEdgeLinkFlap, "edge-link-flap", FamilyTopology, Platform.ZoneName,
		func(p Platform, i int, on bool) { p.SetZoneLink(p.ZoneName(i), !on) }, edgeFlapPeriod},
	{FaultZonePartition, "zone-partition", FamilyTopology, Platform.ZoneName,
		func(p Platform, i int, on bool) { p.SetZonePartitioned(p.ZoneName(i), on) }, 0},
	{FaultNodeKill, "node-kill", FamilyTopology, Platform.ZoneName,
		func(p Platform, i int, on bool) { p.SetZoneNodesDown(p.ZoneName(i), on) }, 0},
}

func numbered(noun string) func(Platform, int) string {
	return func(_ Platform, i int) string { return fmt.Sprintf("%s-%d", noun, i) }
}

func hookName(p Platform, i int) string { return p.Admission().HookName(i) }

// axisOf returns t's row, nil for the message-channel fault models.
func axisOf(t FaultType) *axis {
	for i := range axes {
		if axes[i].fault == t {
			return &axes[i]
		}
	}
	return nil
}

// target folds an arbitrary Injection.Replica onto the n addressable
// instances: indices in range map to themselves, larger ones wrap, negative
// ones mirror.
func target(replica, n int) int {
	replica %= n
	if replica < 0 {
		replica = -replica
	}
	return replica
}

// after schedules one step of the armed timed fault; Disarm cancels them all.
func (j *Injector) after(d time.Duration, step func()) {
	j.faultTimers = append(j.faultTimers, j.loop.After(d, step))
}

// arm schedules a timed fault: fire at After and, with a Heal window, heal at
// Heal. Nothing is scheduled when the cluster lacks the part the fault's
// family acts on.
func (j *Injector) arm(in *Injection, ax *axis) {
	if j.platform == nil {
		return // single-server assembly: no platform attached
	}
	f := &families[ax.family]
	n := f.targets(j.platform)
	if n == 0 {
		return
	}
	i := target(in.Replica, n)
	if f.prepare != nil {
		f.prepare(j.platform, in)
	}
	j.after(in.After, func() {
		if j.armed == in {
			j.fire(in, ax, i)
		}
	})
	if in.Heal > 0 {
		j.after(in.Heal, func() {
			if j.armed == in && j.report.Fired {
				j.heal(ax, i)
			}
		})
	}
}

func (j *Injector) fire(in *Injection, ax *axis, i int) {
	ax.set(j.platform, i, true)
	if ax.flap > 0 {
		j.flap(in, ax, i, false)
	}
	j.report.Instance = families[ax.family].name + "/" + ax.instance(j.platform, i)
	j.report.Fired = true
	j.report.FiredAt = j.loop.Now()
	// The fault acts on the platform itself, not one resource instance: it is
	// activated by construction the moment it fires.
	j.report.Activated = true
}

// flap schedules the next phase of an intermittent fault — on or off — and
// the one after it, until the fault is healed or disarmed.
func (j *Injector) flap(in *Injection, ax *axis, i int, on bool) {
	j.after(ax.flap, func() {
		if j.armed != in || j.report.Healed {
			return
		}
		ax.set(j.platform, i, on)
		j.flap(in, ax, i, !on)
	})
}

func (j *Injector) heal(ax *axis, i int) {
	ax.set(j.platform, i, false)
	j.report.Healed = true
	j.report.HealedAt = j.loop.Now()
}
