// Package inject implements Mutiny, the fault/error injector at the heart of
// the paper: it tampers with the serialized messages exchanged between
// components and the data store, altering the current or desired cluster
// state (§IV-A).
//
// Every injection is characterized by three attributes:
//
//   - where: a communication channel (apiserver→store, or component→
//     apiserver), a resource kind, and either a field path or the
//     serialization bytes of the message;
//   - what: a fault model — bit-flip, data-type set, or message drop;
//   - when: the occurrence index of messages related to the same resource
//     instance, counted from injector arming.
//
// Exactly one fault is injected per experiment. The injector also measures
// activation: an injection counts as activated when the injected resource
// instance is requested (read, listed, or watched) after the injection.
package inject

import (
	"fmt"
	"strings"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// Channel selects which communication path the injection targets.
type Channel int

// Channels.
const (
	// ChannelStore is the apiserver→store path: tampering here bypasses all
	// validation and becomes the agreed cluster state (the main campaign).
	ChannelStore Channel = iota + 1
	// ChannelRequest is the component→apiserver path: tampering here faces
	// authentication, validation and admission (the §V-C4 propagation
	// experiments).
	ChannelRequest
	// ChannelWatch is the apiserver→component watch stream feeding the
	// informer-style readiness pipeline (workload driver, controllers,
	// scheduler, data plane). Tampering here never touches the agreed
	// cluster state: a dropped event starves the subscribers and a
	// corrupted event shows them a state the store never held — the
	// watch-channel staleness fault family. How long the staleness lasts
	// depends on the subscriber: Reflector-backed consumers (driver,
	// application client, controllers, scheduler) repair at their next
	// resync re-list, while raw watchers with no re-list (the netsim data
	// plane, the kubelets) stay stale for the rest of the experiment —
	// exactly the asymmetry that makes the channel an interesting target.
	ChannelWatch
)

func (c Channel) String() string {
	switch c {
	case ChannelStore:
		return "apiserver→etcd"
	case ChannelRequest:
		return "component→apiserver"
	case ChannelWatch:
		return "apiserver→watch"
	default:
		return fmt.Sprintf("Channel(%d)", int(c))
	}
}

// FaultType is the fault model (what).
type FaultType int

// Fault models.
const (
	// BitFlip flips one bit of a field value: for integers bit Bit, for
	// strings the least-significant bit of the character at CharIndex, for
	// booleans an inversion.
	BitFlip FaultType = iota + 1
	// SetValue replaces the field value with Value (data-type set: extreme,
	// invalid, or semantically chosen wrong values).
	SetValue
	// DropMessage discards the whole message; the sender observes success.
	DropMessage
	// FlipProtoByte flips a random bit of the serialized message, exercising
	// the serialization protocol (undecodable or field-shifted objects).
	FlipProtoByte

	// The control-plane fault axes are time-triggered rather than
	// message-triggered: they fire at Injection.After on the simulation clock
	// and act on the control plane itself instead of a message in flight.

	// FaultAPIServerCrash kills apiserver replica Replica; with a Heal window
	// the replica restarts after it. Surviving replicas keep serving and
	// clients fail over to them.
	FaultAPIServerCrash
	// FaultMasterPartition splits the control-plane nodes: replica Replica is
	// isolated from the rest (its store replica loses quorum, its apiserver
	// serves stale reads and fails writes). Heal rejoins it.
	FaultMasterPartition
	// FaultStoreLoss drops the backing store replica of apiserver Replica —
	// disk loss under one etcd member. With a Heal window the member is
	// restored from a snapshot of a surviving replica; without one the loss
	// is permanent and quorum reads decide visibility.
	FaultStoreLoss

	// The admission fault axes are time-triggered like the control-plane
	// faults, but act on the admission webhook chain: Replica indexes the
	// target hook, and Policy (when set) fixes the chain-wide failure policy
	// for the experiment — the fail-open vs fail-closed contrast the
	// admission campaign measures.

	// FaultWebhookDown crashes the backend process of admission hook Replica;
	// with a Heal window it restarts after it. Fail-closed hooks turn the
	// downtime into write rejections, fail-open hooks into skipped (and
	// shadow-counted) policy evaluation.
	FaultWebhookDown
	// FaultWebhookLatency slows admission hook Replica past its call timeout,
	// so every call fails — the slow-webhook outage. Hook calls never advance
	// the clock, so a webhook past its timeout is simply unavailable: the
	// axis sets the same fault as FaultWebhookDown.
	FaultWebhookLatency
	// FaultWebhookSelector misconfigures admission hook Replica's selector so
	// it matches nothing (the wrong-selector configuration defect): the
	// policy silently stops applying under either failure policy.
	FaultWebhookSelector
	// FaultWebhookPolicy drops admission hook Replica's failurePolicy stanza
	// (the missing-default configuration defect) and takes its backend down:
	// the platform default — Ignore, fail-open — silently replaces what the
	// operator believed was a fail-closed hook.
	FaultWebhookPolicy

	// The topology fault axes are time-triggered like the control-plane
	// faults, but act on the zoned cloud-edge network (cluster.Config.Zones
	// >= 2): Injection.Replica indexes the target zone.

	// FaultEdgeLinkFlap flaps the target zone's uplink — down, up, down —
	// on a short period until Heal: the lossy last-mile link of an edge
	// site. The flap phases are far shorter than the heartbeat grace period,
	// so the disruption stays a pure data-plane phenomenon.
	FaultEdgeLinkFlap
	// FaultZonePartition severs the target zone's uplink outright: cross-
	// zone traffic times out and the zone's kubelets lose the control plane
	// until Heal, while the zone keeps serving its own clients.
	FaultZonePartition
	// FaultNodeKill crashes every node of the target zone at once — the
	// mass node-kill (correlated infrastructure failure) axis. Heal brings
	// the nodes back.
	FaultNodeKill
)

func (t FaultType) String() string {
	switch t {
	case BitFlip:
		return "bit-flip"
	case SetValue:
		return "value-set"
	case DropMessage:
		return "drop"
	case FlipProtoByte:
		return "proto-byte"
	}
	if ax := axisOf(t); ax != nil {
		return ax.name
	}
	return fmt.Sprintf("FaultType(%d)", int(t))
}

// Injection is one armed fault: where, what, and when.
type Injection struct {
	// Where.
	Channel Channel
	Kind    spec.Kind
	// SourcePrefix restricts ChannelRequest injections to messages sent by
	// components whose identity starts with this prefix (e.g. "kcm",
	// "scheduler", "kubelet-").
	SourcePrefix string
	// FieldPath selects the field for BitFlip/SetValue.
	FieldPath string

	// What.
	Type FaultType
	// Bit is the zero-based bit index for integer bit flips (the paper
	// flips the 1st and 5th bits: indices 0 and 4).
	Bit int
	// CharIndex is the character position for string bit flips.
	CharIndex int
	// Value is the replacement for SetValue ("", int64(0), false, or a
	// semantic wrong value).
	Value any

	// When: the occurrence index (1-based) of messages related to the same
	// resource instance.
	Occurrence int

	// Timed faults (see timed.go) are located and timed by the fields below
	// instead of channel/kind/field/occurrence.

	// Replica indexes the fault's target within its family: the control-plane
	// replica, the admission webhook hook, or the zone. Out-of-range values
	// are folded onto the family's range.
	Replica int
	// Policy, for admission faults, overrides the chain-wide failure policy
	// ("Fail" or "Ignore") for the experiment, so one bootstrapped cluster
	// serves both sides of the fail-open vs fail-closed contrast. Empty keeps
	// the configured per-hook policies.
	Policy string
	// After is the simulation time (from arming) at which the fault fires.
	After time.Duration
	// Heal, when positive, is the simulation time (from arming) at which the
	// fault is undone. Zero means the fault persists for the rest of the
	// experiment.
	Heal time.Duration
}

// Label renders a compact human-readable description.
func (in Injection) Label() string {
	switch in.Type {
	case BitFlip:
		return fmt.Sprintf("%s %s %s bit-flip(bit=%d,char=%d) occ=%d", in.Channel, in.Kind, in.FieldPath, in.Bit, in.CharIndex, in.Occurrence)
	case SetValue:
		return fmt.Sprintf("%s %s %s set(%v) occ=%d", in.Channel, in.Kind, in.FieldPath, in.Value, in.Occurrence)
	case DropMessage:
		return fmt.Sprintf("%s %s drop occ=%d", in.Channel, in.Kind, in.Occurrence)
	case FlipProtoByte:
		return fmt.Sprintf("%s %s proto-byte occ=%d", in.Channel, in.Kind, in.Occurrence)
	}
	if ax := axisOf(in.Type); ax != nil {
		f := &families[ax.family]
		label := fmt.Sprintf("%s %s %s after=%v", f.name, ax.name, f.where(in), in.After)
		if in.Heal > 0 {
			label += fmt.Sprintf(" heal=%v", in.Heal)
		}
		return label
	}
	return fmt.Sprintf("%s %s ? occ=%d", in.Channel, in.Kind, in.Occurrence)
}

// Report describes what the injector actually did.
type Report struct {
	Fired     bool
	FiredAt   time.Duration
	Instance  string // namespace/name of the injected instance
	StoreKey  string
	Activated bool
	// OldValue and NewValue hold the field values around a field fault.
	OldValue any
	NewValue any
	// Healed and HealedAt record the undoing of a timed fault.
	Healed   bool
	HealedAt time.Duration
}

// Injector arms one injection and implements the API server hooks.
type Injector struct {
	loop *sim.Loop

	armed  *Injection
	counts map[string]int
	report Report

	// servers are the API servers the injector is attached to: arming puts on
	// each the hooks the armed channel uses, and nil in place of the rest.
	servers  []*apiserver.Server
	platform Platform
}

// New creates an idle injector.
func New(loop *sim.Loop) *Injector {
	return &Injector{loop: loop, counts: make(map[string]int)}
}

// AttachTo installs the injector's store-channel hook on the API server and
// remembers the server, so that arming installs the hooks an injection uses
// there too. It must be called once per server, before Arm.
func (j *Injector) AttachTo(srv *apiserver.Server) {
	srv.SetStoreWriteHook(j.Hook(ChannelStore))
	j.servers = append(j.servers, srv)
}

// install puts on every attached server the hooks the armed injection uses:
// the request or watch hook of its channel, and the activation hook for any
// message-channel injection. Every other request, watch and access hook is
// removed, so the server skips the wire encode of a channel nobody listens on.
// Timed faults and golden runs get neither: a timed fault activates itself
// when it fires.
func (j *Injector) install() {
	var request, watch apiserver.Hook
	var access func(key string)
	if in := j.armed; in != nil && in.Channel != 0 {
		switch in.Channel {
		case ChannelRequest:
			request = j.Hook(ChannelRequest)
		case ChannelWatch:
			watch = j.Hook(ChannelWatch)
		}
		access = j.noteAccess
	}
	for _, srv := range j.servers {
		srv.SetRequestHook(request)
		srv.SetWatchHook(watch)
		srv.SetAccessHook(access)
	}
}

// Hook returns the injector's hook for one channel, for callers that need to
// chain it with other hooks (e.g. the critical-field guard on the store
// channel). Occurrence counting follows the same per-instance rule on every
// channel, counting the instance's messages from arming; on the watch channel
// Drop loses the notification, and field and proto-byte faults corrupt what
// the subscribers decode.
func (j *Injector) Hook(ch Channel) apiserver.Hook {
	return func(m *apiserver.Message) apiserver.Action {
		return j.intercept(ch, m)
	}
}

// noteAccess is the activation-tracking hook.
func (j *Injector) noteAccess(key string) {
	if j.report.Fired && key == j.report.StoreKey {
		j.report.Activated = true
	}
}

// AttachPlatform gives the injector the handle the timed fault axes act on.
// Message-channel campaigns never need it.
func (j *Injector) AttachPlatform(p Platform) { j.platform = p }

// Arm programs the injection; the next matching message occurrence fires it.
// Mirrors the campaign manager "configuring the injection trigger by sending
// the triplet (where, when, what) ... to the injected component".
// Timed faults are not message-matched: Arm schedules them on the simulation
// clock at After (and their heal at Heal), and they match no message channel.
func (j *Injector) Arm(in Injection) {
	cp := in
	if cp.Occurrence <= 0 {
		cp.Occurrence = 1
	}
	j.armed = &cp
	j.counts = make(map[string]int)
	j.report = Report{}
	if ax := axisOf(cp.Type); ax != nil {
		cp.Channel = 0
		j.arm(&cp, ax)
	}
	j.install()
}

// Report returns what happened.
func (j *Injector) Report() Report { return j.report }

func (j *Injector) intercept(ch Channel, m *apiserver.Message) apiserver.Action {
	in := j.armed
	if in == nil || j.report.Fired || in.Channel != ch || in.Kind != m.Kind {
		return apiserver.Pass
	}
	if ch == ChannelRequest && in.SourcePrefix != "" && !strings.HasPrefix(m.Source, in.SourcePrefix) {
		return apiserver.Pass
	}
	instance := m.Namespace + "/" + m.Name
	j.counts[instance]++
	if j.counts[instance] != in.Occurrence {
		return apiserver.Pass
	}

	switch in.Type {
	case DropMessage:
		j.fireOn(m, instance)
		return apiserver.Drop
	case FlipProtoByte:
		data := m.Encoded()
		if len(data) == 0 {
			return apiserver.Pass
		}
		off := j.loop.Rand().Intn(len(data))
		bit := j.loop.Rand().Intn(8)
		data[off] ^= 1 << bit
		m.Tampered = true
		j.fireOn(m, instance)
		return apiserver.Pass
	case BitFlip, SetValue:
		if j.tamperField(in, m) {
			j.fireOn(m, instance)
		}
		return apiserver.Pass
	default:
		return apiserver.Pass
	}
}

// tamperField decodes the message, mutates the target field, and re-encodes
// — exactly the paper's implementation ("Mutiny de-serializes the message,
// modifies the content, and re-serializes it, replacing the original").
func (j *Injector) tamperField(in *Injection, m *apiserver.Message) bool {
	obj := spec.New(m.Kind)
	if obj == nil {
		return false
	}
	data := m.Encoded()
	if len(data) == 0 {
		return false
	}
	if err := codec.Unmarshal(data, obj); err != nil {
		return false
	}
	old, err := codec.Get(obj, in.FieldPath)
	if err != nil {
		// This instance does not carry the field (e.g. a different shape);
		// don't consume the occurrence — future instances may match.
		j.counts[m.Namespace+"/"+m.Name]--
		return false
	}
	var newVal any
	switch in.Type {
	case BitFlip:
		newVal = flipValue(old, in.Bit, in.CharIndex)
	case SetValue:
		newVal = in.Value
	}
	if newVal == nil {
		return false
	}
	if err := codec.Set(obj, in.FieldPath, newVal); err != nil {
		return false
	}
	tampered, err := codec.Marshal(obj)
	if err != nil {
		return false
	}
	m.Data = tampered
	m.Tampered = true
	j.report.OldValue = old
	j.report.NewValue = newVal
	return true
}

func (j *Injector) fireOn(m *apiserver.Message, instance string) {
	j.report.Fired = true
	j.report.FiredAt = j.loop.Now()
	j.report.Instance = instance
	j.report.StoreKey = spec.Key(m.Kind, m.Namespace, m.Name)
}

// flipValue applies the paper's bit-flip models per field type: integers
// get bit flips at the given index; strings get the least-significant bit of
// the chosen character flipped (still a character, hence usually still a
// valid string); booleans are inverted. A bit outside 0–63 or a negative
// character index names nothing to flip: the result is nil and the injection
// does not fire, like a field of a type with no flip model.
func flipValue(old any, bit, charIndex int) any {
	switch v := old.(type) {
	case int64:
		if bit < 0 || bit > 63 {
			return nil
		}
		return v ^ (1 << uint(bit))
	case string:
		if charIndex < 0 {
			return nil
		}
		if charIndex >= len(v) {
			if len(v) == 0 {
				// Flipping a bit of an empty string yields a one-character
				// string, like flipping the terminating byte would.
				return string(rune(1))
			}
			charIndex = len(v) - 1
		}
		b := []byte(v)
		b[charIndex] ^= 1
		return string(b)
	case bool:
		return !v
	default:
		return nil
	}
}
