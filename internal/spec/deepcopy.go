package spec

// Hand-written deep copies. Cloning is the hottest operation at campaign
// scale (every read and every watch dispatch copies objects), and the
// reflective generic copy showed up as >50% of campaign CPU time; these
// methods keep the simulation fast enough to run ~9,000 experiments.

func cloneStringMap(in map[string]string) map[string]string {
	if in == nil {
		return nil
	}
	out := make(map[string]string, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

func cloneStrings(in []string) []string {
	if in == nil {
		return nil
	}
	return append([]string(nil), in...)
}

func cloneInts(in []int64) []int64 {
	if in == nil {
		return nil
	}
	return append([]int64(nil), in...)
}

func (m ObjectMeta) clone() ObjectMeta {
	out := m
	out.sealed = false // clones are private until sealed themselves
	out.nsName = ""    // a clone may be renamed before it is written back
	out.Labels = cloneStringMap(m.Labels)
	out.Annotations = cloneStringMap(m.Annotations)
	if m.OwnerReferences != nil {
		out.OwnerReferences = append([]OwnerReference(nil), m.OwnerReferences...)
	}
	return out
}

func (c Container) clone() Container {
	out := c
	out.Command = cloneStrings(c.Command)
	return out
}

func (s PodSpec) clone() PodSpec {
	out := s
	if s.Containers != nil {
		out.Containers = make([]Container, len(s.Containers))
		for i := range s.Containers {
			out.Containers[i] = s.Containers[i].clone()
		}
	}
	if s.Tolerations != nil {
		out.Tolerations = append([]Toleration(nil), s.Tolerations...)
	}
	out.NodeSelector = cloneStringMap(s.NodeSelector)
	return out
}

func (s LabelSelector) clone() LabelSelector {
	return LabelSelector{MatchLabels: cloneStringMap(s.MatchLabels)}
}

func (t PodTemplate) clone() PodTemplate {
	return PodTemplate{Labels: cloneStringMap(t.Labels), Spec: t.Spec.clone()}
}

// Clone implements Object.
func (p *Pod) Clone() Object {
	return &Pod{Metadata: p.Metadata.clone(), Spec: p.Spec.clone(), Status: p.Status}
}

// Clone implements Object.
func (r *ReplicaSet) Clone() Object {
	return &ReplicaSet{
		Metadata: r.Metadata.clone(),
		Spec: ReplicaSetSpec{
			Replicas: r.Spec.Replicas,
			Selector: r.Spec.Selector.clone(),
			Template: r.Spec.Template.clone(),
		},
		Status: r.Status,
	}
}

// Clone implements Object.
func (d *Deployment) Clone() Object {
	return &Deployment{
		Metadata: d.Metadata.clone(),
		Spec: DeploymentSpec{
			Replicas:       d.Spec.Replicas,
			Selector:       d.Spec.Selector.clone(),
			Template:       d.Spec.Template.clone(),
			MaxUnavailable: d.Spec.MaxUnavailable,
			MaxSurge:       d.Spec.MaxSurge,
		},
		Status: d.Status,
	}
}

// Clone implements Object.
func (d *DaemonSet) Clone() Object {
	return &DaemonSet{
		Metadata: d.Metadata.clone(),
		Spec: DaemonSetSpec{
			Selector: d.Spec.Selector.clone(),
			Template: d.Spec.Template.clone(),
		},
		Status: d.Status,
	}
}

// Clone implements Object.
func (s *Service) Clone() Object {
	out := &Service{Metadata: s.Metadata.clone()}
	out.Spec.Selector = cloneStringMap(s.Spec.Selector)
	out.Spec.ClusterIP = s.Spec.ClusterIP
	if s.Spec.Ports != nil {
		out.Spec.Ports = append([]ServicePort(nil), s.Spec.Ports...)
	}
	return out
}

// Clone implements Object.
func (e *Endpoints) Clone() Object {
	out := &Endpoints{Metadata: e.Metadata.clone()}
	if e.Subsets != nil {
		out.Subsets = make([]EndpointSubset, len(e.Subsets))
		for i := range e.Subsets {
			sub := EndpointSubset{Ports: cloneInts(e.Subsets[i].Ports)}
			if e.Subsets[i].Addresses != nil {
				sub.Addresses = append([]EndpointAddress(nil), e.Subsets[i].Addresses...)
			}
			out.Subsets[i] = sub
		}
	}
	return out
}

// Clone implements Object.
func (n *Node) Clone() Object {
	out := &Node{Metadata: n.Metadata.clone(), Status: n.Status}
	out.Spec.PodCIDR = n.Spec.PodCIDR
	out.Spec.Unschedulable = n.Spec.Unschedulable
	if n.Spec.Taints != nil {
		out.Spec.Taints = append([]Taint(nil), n.Spec.Taints...)
	}
	return out
}

// Clone implements Object.
func (n *Namespace) Clone() Object {
	return &Namespace{Metadata: n.Metadata.clone(), Phase: n.Phase}
}

// Clone implements Object.
func (c *ConfigMap) Clone() Object {
	return &ConfigMap{Metadata: c.Metadata.clone(), Data: cloneStringMap(c.Data)}
}

// Clone implements Object.
func (l *Lease) Clone() Object {
	return &Lease{Metadata: l.Metadata.clone(), Spec: l.Spec}
}
