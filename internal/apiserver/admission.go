package apiserver

import (
	"errors"
	"fmt"
	"strings"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// The admission chain is the fourth injectable surface (after the store,
// request, and watch channels): a mutating + validating webhook pipeline
// evaluated on every spec-carrying write in its scope — the application
// namespace's workload objects — before it persists. Each hook is backed by
// an endpoint hosted on a cluster node; the server reaches it through the
// virtual network (a reachability probe injected by the cluster, so the
// apiserver package never imports netsim).
//
// What happens when a webhook is unavailable is the chain's FailurePolicy —
// the fail-open vs fail-closed dilemma the campaign measures:
//
//   - Fail (fail-closed): the write is rejected with ErrAdmission. Policy
//     enforcement never lapses, but webhook downtime becomes a write-
//     availability outage for everything the hook selects.
//   - Ignore (fail-open): the hook is skipped and the write proceeds.
//     Availability is preserved, but objects that the hook would have denied
//     are silently admitted — an enforcement-integrity loss. The chain
//     shadow-evaluates the skipped predicate and counts those admissions in
//     ViolationsAdmitted (an observer-only tally; it never alters behavior).
//
// Hook calls are synchronous on the write path and never advance the clock:
// a webhook is available or it is not for the whole write, so a slow webhook
// (one whose latency is past the call timeout) is simply unavailable, and no
// retry inside one write could change that.
//
// One chain is shared by every apiserver replica (like the shared Audit):
// admission configuration is cluster state, not per-replica state, and a
// fault must bite no matter which replica serves the write.

// ErrAdmission marks a write rejected by the admission chain — either denied
// by a validating webhook or refused because an unreachable hook's policy is
// fail-closed. It is deliberately distinct from ErrUnavailable: the chain is
// cluster-wide, so failover clients must NOT retry another replica.
var ErrAdmission = errors.New("apiserver: admission denied")

// FailurePolicy decides what an unreachable webhook does to the write.
type FailurePolicy string

// The two admission failure policies.
const (
	// FailClosed rejects the write when the webhook cannot be reached.
	FailClosed FailurePolicy = "Fail"
	// FailOpen skips the unreachable webhook and admits the write.
	FailOpen FailurePolicy = "Ignore"
)

// inScope reports whether a write falls under the chain: the workload kinds
// of the application namespace. Real policy webhooks are scoped the same way
// (objectSelector + namespaceSelector), which is what keeps kube-system — and
// the control plane's own writes — writable while a fail-closed hook is down.
func inScope(obj spec.Object) bool {
	switch obj.Kind() {
	case spec.KindPod, spec.KindReplicaSet, spec.KindDeployment, spec.KindDaemonSet:
		return obj.Meta().Namespace == spec.DefaultNamespace
	}
	return false
}

// AdmissionHook is one registered webhook. Mutating hooks run first (in
// registration order) and may rewrite the object; validating hooks run after
// every mutation and may deny the write. Backend names the cluster node
// hosting the webhook endpoint — crash that node (or cut its routes) and the
// hook becomes unreachable through the virtual network.
type AdmissionHook struct {
	Name     string
	Mutating bool
	Backend  string

	// Mutate rewrites the (request-private) object; nil for validating hooks.
	Mutate func(obj spec.Object)
	// Validate denies the write by returning an error; nil for mutating hooks.
	Validate func(obj spec.Object) error

	// Injected fault state (see the chain's fault methods).
	down           bool
	slow           bool
	selectorBroken bool
	policyDropped  bool
}

// AdmissionChain evaluates registered hooks on every spec-carrying write.
type AdmissionChain struct {
	hooks []*AdmissionHook
	// reach probes the virtual network: can the control plane currently
	// route to the named node? Injected by the cluster at assembly.
	reach func(node string) bool
	// policy is the configured failure policy of every hook. override, when
	// set, replaces it for the rest of the experiment — how one bootstrap
	// snapshot serves both policy regimes (the policy is behaviorally inert
	// while hooks are healthy, so it can be chosen at injector-arm time).
	policy, override FailurePolicy

	violationsAdmitted int64
}

// NewAdmissionChain builds a chain over the given hooks (evaluation order:
// mutating hooks in slice order, then validating hooks in slice order), every
// one configured with the given failure policy (empty: the platform default,
// Ignore).
func NewAdmissionChain(policy FailurePolicy, hooks ...*AdmissionHook) *AdmissionChain {
	return &AdmissionChain{hooks: hooks, policy: policy}
}

// SetReachability installs the virtual-network probe webhook calls consult.
func (c *AdmissionChain) SetReachability(f func(node string) bool) { c.reach = f }

// SetFailurePolicy overrides the configured failure policy for the rest of
// the experiment. Empty restores the configuration.
func (c *AdmissionChain) SetFailurePolicy(p FailurePolicy) { c.override = p }

// HookCount returns the number of registered hooks.
func (c *AdmissionChain) HookCount() int { return len(c.hooks) }

// HookName returns the name of hook i.
func (c *AdmissionChain) HookName(i int) string { return c.hooks[i].Name }

// --- injected fault state -----------------------------------------------------

// SetWebhookDown takes hook i's backend process down or brings it back.
func (c *AdmissionChain) SetWebhookDown(i int, down bool) { c.hooks[i].down = down }

// SetWebhookSlow pushes hook i's latency past the call timeout, so every call
// fails — the slow-webhook outage mode.
func (c *AdmissionChain) SetWebhookSlow(i int, slow bool) { c.hooks[i].slow = slow }

// SetSelectorBroken misconfigures hook i's selector so it matches nothing
// (the wrong-selector configuration defect): the policy silently stops
// applying regardless of failure policy. The chain keeps shadow-matching the
// intended selector to count the violations admitted.
func (c *AdmissionChain) SetSelectorBroken(i int, broken bool) { c.hooks[i].selectorBroken = broken }

// SetPolicyDropped misconfigures hook i as if its failurePolicy stanza were
// missing: the platform default — Ignore, fail-open — applies, AND the
// backend goes down, modeling the documented trap where an operator believes
// a hook is fail-closed but its unavailability silently drops enforcement
// instead.
func (c *AdmissionChain) SetPolicyDropped(i int, dropped bool) {
	c.hooks[i].policyDropped = dropped
	c.hooks[i].down = dropped
}

// Reset undoes every injected fault and policy override and zeroes the
// violation count: the chain NewAdmissionChain built.
func (c *AdmissionChain) Reset() {
	for _, h := range c.hooks {
		h.down, h.slow, h.selectorBroken, h.policyDropped = false, false, false, false
	}
	c.override = ""
	c.violationsAdmitted = 0
}

func (c *AdmissionChain) effectivePolicy(h *AdmissionHook) FailurePolicy {
	switch {
	case h.policyDropped:
		return FailOpen
	case c.override != "":
		return c.override
	case c.policy == "":
		return FailOpen
	}
	return c.policy
}

// unavailable reports whether a call to h fails right now: backend process
// down, node unreachable through the virtual network, or latency past the
// call timeout.
func (c *AdmissionChain) unavailable(h *AdmissionHook) bool {
	return h.down || (c.reach != nil && h.Backend != "" && !c.reach(h.Backend)) || h.slow
}

// Degraded reports whether some hook is currently turning webhook downtime
// into write rejections: effective policy fail-closed and backend
// unreachable. A broken-selector hook matches nothing and so rejects
// nothing. The collector charges scrape intervals with Degraded() true to
// the admission-outage window.
func (c *AdmissionChain) Degraded() bool {
	for _, h := range c.hooks {
		if h.selectorBroken {
			continue
		}
		if c.effectivePolicy(h) == FailClosed && c.unavailable(h) {
			return true
		}
	}
	return false
}

// Admit evaluates the chain on one write in its scope: mutating hooks first
// (registration order), then validating hooks. It returns nil to admit
// (possibly after mutation) or an ErrAdmission-wrapped error to reject, and
// counts ViolationsAdmitted once per admitted write that a skipped validating
// hook would have denied.
func (c *AdmissionChain) Admit(verb Verb, obj spec.Object) error {
	if !inScope(obj) {
		return nil
	}
	violated := false
	for _, mutating := range [2]bool{true, false} {
		for _, h := range c.hooks {
			if h.Mutating != mutating {
				continue
			}
			if h.selectorBroken {
				// Wrong selector: the hook silently stops applying. Shadow-
				// evaluate the intended configuration so the integrity loss
				// is measurable.
				if violatesSkipped(h, verb, obj) {
					violated = true
				}
				continue
			}
			if c.unavailable(h) {
				if c.effectivePolicy(h) == FailClosed {
					return fmt.Errorf("%w: webhook %q unavailable (failurePolicy=Fail)", ErrAdmission, h.Name)
				}
				// Fail-open: skip the hook, note what slipped through.
				if violatesSkipped(h, verb, obj) {
					violated = true
				}
				continue
			}
			if h.Mutating {
				if h.Mutate != nil {
					h.Mutate(obj)
				}
				continue
			}
			if h.Validate != nil {
				if err := h.Validate(obj); err != nil {
					return fmt.Errorf("%w: webhook %q: %v", ErrAdmission, h.Name, err)
				}
			}
		}
	}
	if violated {
		c.violationsAdmitted++
	}
	return nil
}

// violatesSkipped reports whether skipping h admits a policy violation.
// Only creates count: one admitted violating object is one integrity loss,
// however many times it is subsequently updated.
func violatesSkipped(h *AdmissionHook, verb Verb, obj spec.Object) bool {
	return !h.Mutating && verb == VerbCreate && h.Validate != nil && h.Validate(obj) != nil
}

// ViolationsAdmitted returns the number of admitted writes that a skipped
// validating hook would have denied — the enforcement-integrity loss.
func (c *AdmissionChain) ViolationsAdmitted() int64 { return c.violationsAdmitted }

// ResumeViolations sets the violation count, for a cluster resuming from a
// snapshot. Fault state is deliberately not part of a snapshot: snapshots are
// taken of settled, fault-free clusters, and each fork arms its own injector.
func (c *AdmissionChain) ResumeViolations(n int64) { c.violationsAdmitted = n }

// --- the standard governance chain --------------------------------------------

// AdmissionDefaultedLabel is stamped by the standard mutating defaulter hook
// onto every object it admits.
const AdmissionDefaultedLabel = "policy.mutiny.io/defaulted"

// StandardAdmissionHooks builds the first n of the standard governance-
// operator chain, every hook's backend on one of the given nodes
// (round-robin):
//
//  1. "defaulter" (mutating): stamps AdmissionDefaultedLabel.
//  2. "image-policy" (validating): images must come from registry.local and
//     must not float on :latest.
//  3. "limits-policy" (validating): every container must set CPU and memory
//     limits.
func StandardAdmissionHooks(n int, backends []string) []*AdmissionHook {
	backend := func(i int) string {
		if len(backends) == 0 {
			return ""
		}
		return backends[i%len(backends)]
	}
	all := []*AdmissionHook{
		{
			Name:     "defaulter",
			Mutating: true,
			Mutate: func(obj spec.Object) {
				m := obj.Meta()
				if m.Labels == nil {
					m.Labels = map[string]string{}
				}
				m.Labels[AdmissionDefaultedLabel] = "true"
			},
		},
		{
			Name:     "image-policy",
			Validate: func(obj spec.Object) error { return validateImages(obj) },
		},
		{
			Name:     "limits-policy",
			Validate: func(obj spec.Object) error { return validateLimits(obj) },
		},
	}
	if n > len(all) {
		n = len(all)
	}
	hooks := all[:n]
	for i, h := range hooks {
		h.Backend = backend(i)
	}
	return hooks
}

// workloadContainers extracts the container list a policy hook inspects.
func workloadContainers(obj spec.Object) []spec.Container {
	if pod, ok := obj.(*spec.Pod); ok {
		return pod.Spec.Containers
	}
	if _, tpl := spec.TemplateOf(obj); tpl != nil {
		return tpl.Spec.Containers
	}
	return nil
}

func validateImages(obj spec.Object) error {
	for _, ct := range workloadContainers(obj) {
		if !strings.HasPrefix(ct.Image, "registry.local/") {
			return fmt.Errorf("container %q: image %q not from registry.local", ct.Name, ct.Image)
		}
		if strings.HasSuffix(ct.Image, ":latest") {
			return fmt.Errorf("container %q: floating tag :latest forbidden", ct.Name)
		}
	}
	return nil
}

func validateLimits(obj spec.Object) error {
	for _, ct := range workloadContainers(obj) {
		if ct.LimitsMilliCPU <= 0 || ct.LimitsMemMB <= 0 {
			return fmt.Errorf("container %q: CPU and memory limits are required", ct.Name)
		}
	}
	return nil
}
