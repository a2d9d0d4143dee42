package apiserver

import (
	"fmt"
	"net"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// The validation layer mirrors the checks the paper found the real API
// server performing (§V-C4): "general validations, e.g., regex matching or
// border-case testing", detection of a namespace that does not match the
// request URL, and detection of label selectors that do not match the
// template labels of the same resource instance (the condition that triggers
// the infinite Pod spawn). Valid-but-wrong values pass, which is exactly the
// weakness the propagation experiments measure.
//
// The three character-class matchers below are hand-rolled equivalents of
// the regexes they replace (validation runs on every write, and the
// backtracking matcher was measurable at campaign scale):
//
//	dns1123:  ^[a-z0-9]([-a-z0-9.]*[a-z0-9])?$
//	label:    ^(([A-Za-z0-9][-A-Za-z0-9_./]*)?[A-Za-z0-9])?$
//	image:    ^[a-z0-9]([-a-z0-9._/:]*[a-zA-Z0-9])?$
//
// TestValidationMatchersMatchRegexes pins the equivalence over the full
// single-byte neighborhood the bit-flip campaign explores.

func lowerAlnum(c byte) bool { return c >= 'a' && c <= 'z' || c >= '0' && c <= '9' }

func alnum(c byte) bool { return lowerAlnum(c) || c >= 'A' && c <= 'Z' }

// matchClass reports whether s matches: first(s[0]) then inner* then
// last(s[n-1]), with the single-character case requiring first AND last.
func matchClass(s string, first, inner, last func(byte) bool) bool {
	n := len(s)
	if n == 0 {
		return false
	}
	if !first(s[0]) || !last(s[n-1]) {
		return false
	}
	for i := 1; i < n-1; i++ {
		if !inner(s[i]) {
			return false
		}
	}
	return true
}

func matchDNS1123(s string) bool {
	return matchClass(s, lowerAlnum, func(c byte) bool {
		return lowerAlnum(c) || c == '-' || c == '.'
	}, lowerAlnum)
}

func matchLabelValue(s string) bool {
	if s == "" {
		return true
	}
	return matchClass(s, alnum, func(c byte) bool {
		return alnum(c) || c == '-' || c == '_' || c == '.' || c == '/'
	}, alnum)
}

func matchImageRef(s string) bool {
	return matchClass(s, lowerAlnum, func(c byte) bool {
		return lowerAlnum(c) || c == '-' || c == '.' || c == '_' || c == '/' || c == ':'
	}, alnum)
}

func (s *Server) validate(verb Verb, msg *Message, obj spec.Object, cur spec.Object) error {
	m := obj.Meta()
	// Identity must match the request URL: a corrupted name or namespace in
	// the body is detectable here and only here.
	if m.Name != msg.Name {
		return fmt.Errorf("%w: body name %q does not match request name %q", ErrInvalid, m.Name, msg.Name)
	}
	if m.Namespace != msg.Namespace {
		return fmt.Errorf("%w: body namespace %q does not match request namespace %q", ErrInvalid, m.Namespace, msg.Namespace)
	}
	if err := validateName(m.Name); err != nil {
		return err
	}
	if obj.Kind().ClusterScoped() {
		if m.Namespace != "" {
			return fmt.Errorf("%w: %s is cluster-scoped", ErrInvalid, obj.Kind())
		}
	} else {
		if err := validateName(m.Namespace); err != nil {
			return err
		}
	}
	for k, v := range m.Labels {
		if !matchLabelValue(v) || k == "" {
			return fmt.Errorf("%w: invalid label %q=%q", ErrInvalid, k, v)
		}
	}
	if cur != nil && m.UID != "" && m.UID != cur.Meta().UID {
		return fmt.Errorf("%w: uid is immutable", ErrInvalid)
	}

	switch o := obj.(type) {
	case *spec.Pod:
		return s.validatePod(o, cur)
	case *spec.ReplicaSet:
		return validateWorkload(o.Spec.Replicas, o.Spec.Selector, o.Spec.Template, cur)
	case *spec.Deployment:
		if o.Spec.MaxUnavailable < 0 || o.Spec.MaxSurge < 0 {
			return fmt.Errorf("%w: negative rolling-update bounds", ErrInvalid)
		}
		return validateWorkload(o.Spec.Replicas, o.Spec.Selector, o.Spec.Template, cur)
	case *spec.DaemonSet:
		return validateWorkload(0, o.Spec.Selector, o.Spec.Template, cur)
	case *spec.Service:
		return validateService(o)
	case *spec.Node:
		return validateNode(o)
	case *spec.Endpoints:
		return validateEndpoints(o)
	}
	return nil
}

func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("%w: empty name", ErrInvalid)
	}
	if len(name) > 253 || !matchDNS1123(name) {
		return fmt.Errorf("%w: invalid DNS-1123 name %q", ErrInvalid, name)
	}
	return nil
}

func (s *Server) validatePod(p *spec.Pod, cur spec.Object) error {
	if len(p.Spec.Containers) == 0 {
		return fmt.Errorf("%w: pod has no containers", ErrInvalid)
	}
	for i := range p.Spec.Containers {
		c := &p.Spec.Containers[i]
		if c.Name == "" {
			return fmt.Errorf("%w: container %d has no name", ErrInvalid, i)
		}
		if !matchImageRef(c.Image) {
			return fmt.Errorf("%w: invalid image reference %q", ErrInvalid, c.Image)
		}
		if err := validateResources(c); err != nil {
			return err
		}
		if c.Port != 0 && (c.Port < spec.MinPort || c.Port > spec.MaxPort) {
			return fmt.Errorf("%w: container port %d out of range", ErrInvalid, c.Port)
		}
	}
	if p.Spec.Priority < 0 {
		return fmt.Errorf("%w: negative priority", ErrInvalid)
	}
	if cur != nil {
		curPod, ok := cur.(*spec.Pod)
		if ok && curPod.Spec.NodeName != "" && p.Spec.NodeName != curPod.Spec.NodeName {
			return fmt.Errorf("%w: nodeName is immutable once bound", ErrInvalid)
		}
	}
	return nil
}

func validateResources(c *spec.Container) error {
	if c.RequestsMilliCPU < 0 || c.RequestsMemMB < 0 || c.LimitsMilliCPU < 0 || c.LimitsMemMB < 0 {
		return fmt.Errorf("%w: negative resource quantity", ErrInvalid)
	}
	if c.LimitsMilliCPU > 0 && c.RequestsMilliCPU > c.LimitsMilliCPU {
		return fmt.Errorf("%w: cpu request exceeds limit", ErrInvalid)
	}
	if c.LimitsMemMB > 0 && c.RequestsMemMB > c.LimitsMemMB {
		return fmt.Errorf("%w: memory request exceeds limit", ErrInvalid)
	}
	return nil
}

func validateWorkload(replicas int64, sel spec.LabelSelector, tpl spec.PodTemplate, cur spec.Object) error {
	if replicas < 0 {
		return fmt.Errorf("%w: negative replicas", ErrInvalid)
	}
	if sel.Empty() {
		return fmt.Errorf("%w: empty selector", ErrInvalid)
	}
	// The selector must select the pods the template produces; otherwise the
	// controller would spawn pods it can never count (infinite Pod spawn).
	if !sel.Matches(tpl.Labels) {
		return fmt.Errorf("%w: selector does not match template labels", ErrInvalid)
	}
	// Selectors are immutable after creation (apps/v1 semantics).
	if cur != nil {
		if curSel, _ := spec.TemplateOf(cur); curSel == nil || !selectorsEqual(sel, *curSel) {
			return fmt.Errorf("%w: selector is immutable", ErrInvalid)
		}
	}
	if len(tpl.Spec.Containers) == 0 {
		return fmt.Errorf("%w: template has no containers", ErrInvalid)
	}
	for i := range tpl.Spec.Containers {
		c := &tpl.Spec.Containers[i]
		if !matchImageRef(c.Image) {
			return fmt.Errorf("%w: invalid image reference %q", ErrInvalid, c.Image)
		}
		if err := validateResources(c); err != nil {
			return err
		}
	}
	return nil
}

func selectorsEqual(a, b spec.LabelSelector) bool {
	if len(a.MatchLabels) != len(b.MatchLabels) {
		return false
	}
	for k, v := range a.MatchLabels {
		if b.MatchLabels[k] != v {
			return false
		}
	}
	return true
}

func validateService(svc *spec.Service) error {
	if len(svc.Spec.Ports) == 0 {
		return fmt.Errorf("%w: service has no ports", ErrInvalid)
	}
	for _, p := range svc.Spec.Ports {
		if p.Port < spec.MinPort || p.Port > spec.MaxPort {
			return fmt.Errorf("%w: service port %d out of range", ErrInvalid, p.Port)
		}
		if p.TargetPort < spec.MinPort || p.TargetPort > spec.MaxPort {
			return fmt.Errorf("%w: target port %d out of range", ErrInvalid, p.TargetPort)
		}
		switch p.Protocol {
		case "", "TCP", "UDP":
		default:
			return fmt.Errorf("%w: unsupported protocol %q", ErrInvalid, p.Protocol)
		}
	}
	if svc.Spec.ClusterIP != "" && net.ParseIP(svc.Spec.ClusterIP) == nil {
		return fmt.Errorf("%w: invalid clusterIP %q", ErrInvalid, svc.Spec.ClusterIP)
	}
	return nil
}

func validateNode(n *spec.Node) error {
	for _, t := range n.Spec.Taints {
		switch t.Effect {
		case spec.TaintNoSchedule, spec.TaintNoExecute:
		default:
			return fmt.Errorf("%w: unsupported taint effect %q", ErrInvalid, t.Effect)
		}
	}
	if n.Spec.PodCIDR != "" {
		if _, _, err := net.ParseCIDR(n.Spec.PodCIDR); err != nil {
			return fmt.Errorf("%w: invalid podCIDR %q", ErrInvalid, n.Spec.PodCIDR)
		}
	}
	if n.Status.CapacityMilliCPU < 0 || n.Status.CapacityMemMB < 0 {
		return fmt.Errorf("%w: negative node capacity", ErrInvalid)
	}
	return nil
}

func validateEndpoints(e *spec.Endpoints) error {
	for _, sub := range e.Subsets {
		for _, a := range sub.Addresses {
			if a.IP != "" && net.ParseIP(a.IP) == nil {
				return fmt.Errorf("%w: invalid endpoint IP %q", ErrInvalid, a.IP)
			}
		}
		for _, p := range sub.Ports {
			if p < spec.MinPort || p > spec.MaxPort {
				return fmt.Errorf("%w: endpoint port %d out of range", ErrInvalid, p)
			}
		}
	}
	return nil
}
