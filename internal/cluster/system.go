package cluster

import (
	"time"

	"github.com/mutiny-sim/mutiny/internal/netsim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// installSystemWorkloads creates the system-plane objects: namespaces, the
// network-manager DaemonSet and its ConfigMap, coreDNS, and the Prometheus
// monitoring deployment — the same inventory as the paper's kubeadm +
// flannel + Prometheus setup (§V-A).
func (c *Cluster) installSystemWorkloads() {
	admin := c.Client("bootstrap")

	for _, ns := range []string{spec.DefaultNamespace, spec.SystemNamespace} {
		_ = admin.Create(&spec.Namespace{
			Metadata: spec.ObjectMeta{Name: ns},
			Phase:    "Active",
		})
	}

	_ = admin.Create(&spec.ConfigMap{
		Metadata: spec.ObjectMeta{Name: netsim.NetConfigMapName, Namespace: spec.SystemNamespace},
		Data:     map[string]string{netsim.NetConfigKey: netsim.NetConfigValue},
	})

	// Network manager: one pod per node, tolerates everything, critical
	// priority — the workload whose label corruption drives the paper's
	// flagship uncontrolled-replication outage.
	_ = admin.Create(&spec.DaemonSet{
		Metadata: spec.ObjectMeta{
			Name: "kube-flannel", Namespace: spec.SystemNamespace,
			Labels: spec.AppLabels(netsim.NetManagerLabel),
		},
		Spec: spec.DaemonSetSpec{
			Selector: spec.LabelSelector{MatchLabels: spec.AppLabels(netsim.NetManagerLabel)},
			Template: spec.PodTemplate{
				Labels: spec.AppLabels(netsim.NetManagerLabel),
				Spec: spec.PodSpec{
					Containers: []spec.Container{{
						Name: "flannel", Image: "registry.local/flannel:1.1.2",
						Command:          []string{"flanneld"},
						RequestsMilliCPU: 100, RequestsMemMB: 64,
						LimitsMilliCPU: 200, LimitsMemMB: 128,
					}},
					Priority:    spec.SystemCriticalPriority,
					Tolerations: []spec.Toleration{{TolerateAll: true}},
				},
			},
		},
	})

	// Cluster DNS: a two-replica deployment plus its service.
	_ = admin.Create(spec.NewAppDeployment(spec.SystemNamespace, netsim.DNSLabel, 2, spec.PodSpec{
		Containers: []spec.Container{{
			Name: "coredns", Image: "registry.local/coredns:1.10",
			Command:          []string{"coredns"},
			RequestsMilliCPU: 100, RequestsMemMB: 128,
			LimitsMilliCPU: 200, LimitsMemMB: 256, Port: 53,
		}},
		Priority:    spec.SystemCriticalPriority,
		Tolerations: []spec.Toleration{{Key: ControlPlaneTaint, Effect: spec.TaintNoSchedule}},
	}))
	dns := spec.NewAppService(spec.SystemNamespace, "kube-dns", netsim.DNSLabel,
		spec.ServicePort{Port: 53, TargetPort: 53, Protocol: "UDP"})
	dns.Spec.ClusterIP = "10.96.0.10"
	_ = admin.Create(dns)

	// Monitoring: Prometheus pinned to the monitoring node. Its
	// reachability is one of the classifier's Outage criteria ("all the
	// ReplicaSets are unreachable, including Prometheus").
	_ = admin.Create(spec.NewAppDeployment(spec.SystemNamespace, MonitoringApp, 1, spec.PodSpec{
		Containers: []spec.Container{{
			Name: "prometheus", Image: "registry.local/prometheus:2.45",
			Command:          []string{"serve"},
			RequestsMilliCPU: 250, RequestsMemMB: 256,
			LimitsMilliCPU: 500, LimitsMemMB: 512, Port: MonitoringPort,
		}},
		NodeSelector: map[string]string{labelRole: roleMonitoring},
		Tolerations:  []spec.Toleration{{Key: MonitoringTaint, Effect: spec.TaintNoSchedule}},
	}))
	_ = admin.Create(spec.NewAppService(spec.SystemNamespace, MonitoringApp, MonitoringApp,
		spec.ServicePort{Port: MonitoringPort, TargetPort: MonitoringPort, Protocol: "TCP"}))
}

// applyNodeRoles taints the control-plane and monitoring nodes so that
// application pods land only on the remaining workers. Reads go through the
// watch cache, which is cold at bootstrap, so each taint retries until the
// node object becomes visible.
func (c *Cluster) applyNodeRoles() {
	admin := c.Client("bootstrap")
	var taint func(nodeName string, t spec.Taint, attempts int)
	taint = func(nodeName string, t spec.Taint, attempts int) {
		if attempts <= 0 {
			return
		}
		retry := func() {
			c.Loop.After(100*time.Millisecond, func() { taint(nodeName, t, attempts-1) })
		}
		obj, err := admin.Get(spec.KindNode, "", nodeName)
		if err != nil {
			retry()
			return
		}
		node := obj.(*spec.Node)
		for _, existing := range node.Spec.Taints {
			if existing.Key == t.Key {
				return
			}
		}
		node = spec.CloneForWriteAs(node) // sealed cache reference
		node.Spec.Taints = append(node.Spec.Taints, t)
		if err := admin.Update(node); err != nil {
			retry()
		}
	}
	taint(ControlPlaneNode, spec.Taint{Key: ControlPlaneTaint, Effect: spec.TaintNoSchedule}, 50)
	taint(c.MonitoringNode(), spec.Taint{Key: MonitoringTaint, Value: "monitoring", Effect: spec.TaintNoSchedule}, 50)
}
