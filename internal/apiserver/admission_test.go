package apiserver

import (
	"errors"
	"fmt"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// unlimitedPod is a pod the standard chain's limits-policy hook denies: its
// container sets no CPU or memory limits (its image passes image-policy).
func unlimitedPod(namespace string) *spec.Pod {
	return &spec.Pod{
		Metadata: spec.ObjectMeta{Name: "web-1", Namespace: namespace},
		Spec: spec.PodSpec{Containers: []spec.Container{{
			Name: "web", Image: "registry.local/webapp:1.0", Command: []string{"serve"},
		}}},
	}
}

// TestAdmissionFaultTable holds the chain to its fault model: for every fault
// on the limits-policy hook, under either failure policy, a create in the
// chain's scope and one outside it get the verdict, the Degraded report and
// the violation count the package documentation gives them.
func TestAdmissionFaultTable(t *testing.T) {
	const limits = 2 // the limits-policy hook
	faults := []struct {
		name string
		set  func(c *AdmissionChain)
	}{
		{"none", func(*AdmissionChain) {}},
		{"down", func(c *AdmissionChain) { c.SetWebhookDown(limits, true) }},
		{"slow", func(c *AdmissionChain) { c.SetWebhookSlow(limits, true) }},
		{"selector-broken", func(c *AdmissionChain) { c.SetSelectorBroken(limits, true) }},
		{"policy-dropped", func(c *AdmissionChain) { c.SetPolicyDropped(limits, true) }},
	}
	type outcome struct {
		admitted, degraded bool
		violations         int64
	}
	// want gives the outcome of an in-scope create; out of scope, every write
	// is admitted untouched and counts nothing.
	want := func(fault string, policy FailurePolicy) outcome {
		switch fault {
		case "none":
			return outcome{admitted: false} // the healthy hook denies it
		case "down", "slow":
			if policy == FailClosed {
				return outcome{admitted: false, degraded: true}
			}
			return outcome{admitted: true, violations: 1}
		default: // the hook is skipped whatever the policy: the violation slips through
			return outcome{admitted: true, violations: 1}
		}
	}
	for _, f := range faults {
		for _, policy := range []FailurePolicy{FailClosed, FailOpen} {
			for _, scoped := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/in-scope=%v", f.name, policy, scoped)
				t.Run(name, func(t *testing.T) {
					c := NewAdmissionChain(policy, StandardAdmissionHooks(3, nil)...)
					f.set(c)
					ns := spec.DefaultNamespace
					exp := want(f.name, policy)
					if !scoped {
						ns = spec.SystemNamespace
						exp = outcome{admitted: true, degraded: exp.degraded}
					}
					pod := unlimitedPod(ns)
					err := c.Admit(VerbCreate, pod)
					if err != nil && !errors.Is(err, ErrAdmission) {
						t.Fatalf("Admit = %v, not an admission verdict", err)
					}
					got := outcome{admitted: err == nil, degraded: c.Degraded(), violations: c.ViolationsAdmitted()}
					if got != exp {
						t.Fatalf("got %+v (Admit: %v), want %+v", got, err, exp)
					}
					if _, defaulted := pod.Metadata.Labels[AdmissionDefaultedLabel]; defaulted != scoped {
						t.Fatalf("defaulter label stamped: %v, want %v", defaulted, scoped)
					}
				})
			}
		}
	}
}
