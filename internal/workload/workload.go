// Package workload implements the orchestration workloads and the
// application client of the paper's experimental method (§IV-B): a kbench-
// like driver performing deploy / scale-up / failover operations on a
// service application, and a client measuring its availability and response
// times from the monitoring node.
package workload

import (
	"errors"
	"fmt"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// Kind names an orchestration workload.
type Kind string

// The three workloads of §IV-B.
const (
	Deploy   Kind = "deploy"
	ScaleUp  Kind = "scale"
	Failover Kind = "failover"
)

// Policy is the governance-operator workload of the admission campaign: a
// steady mix of compliant churn (deployment scaling the admission chain must
// keep admitting) and policy-violating canary creates (which a healthy chain
// denies). It rides alongside the paper's three — deliberately NOT in
// Kinds(), so message-channel campaigns and their goldens are untouched.
const Policy Kind = "policy"

// Kinds lists the workloads in paper order.
func Kinds() []Kind { return []Kind{Deploy, ScaleUp, Failover} }

// ParseKind resolves a workload name as typed on a command line. An unknown
// name is an error: a Driver for it would run nothing and the experiment
// would still classify.
func ParseKind(name string) (Kind, error) {
	for _, k := range append(Kinds(), Policy) {
		if string(k) == name {
			return k, nil
		}
	}
	return "", fmt.Errorf("unknown workload %q (want deploy, scale, failover or policy)", name)
}

// UserIdentity is the cluster-user identity driving workloads; its API
// errors feed the Figure 7 analysis.
const UserIdentity = "kbench"

// Parameters from §V-A.
const (
	deployDeployments = 3
	deployReplicas    = 2
	scaleDeployments  = 2
	scaleSteps        = 3 // 2→3→4→5
	scaleStepDelay    = 10 * time.Second
	failoverDeploys   = 3
	requestTimeout    = 40 * time.Second // kbench wait bound
	failoverTaintKey  = "kbench-failover"
	appPort           = 80
	appTargetPort     = 8080
	// readinessResync is the low-frequency safety-net re-list of the
	// watch-driven readiness views: lost watch notifications (crashes,
	// injected watch-channel drops) surface at most one resync later
	// instead of stalling the driver until the kbench bound.
	readinessResync = 5 * time.Second
	// The policy workload: policyRounds rounds, policyRoundDelay apart, each
	// issuing one violating canary create plus compliant scaling churn. The
	// cadence spans the 45 s measurement window, so webhook faults firing and
	// healing anywhere inside it are straddled by both kinds of write.
	policyDeployments = 2
	policyRounds      = 14
	policyRoundDelay  = 3 * time.Second
)

// AppName returns the name of the i-th service application deployment.
func AppName(i int) string { return fmt.Sprintf("webapp-%d", i) }

// AppDeployment builds the paper's service application: a stateless web
// server that reads a random seed from a volume at startup, with CPU and
// memory requests and limits and default priority.
func AppDeployment(name string, replicas int64) *spec.Deployment {
	return spec.NewAppDeployment(spec.DefaultNamespace, name, replicas, spec.PodSpec{
		Containers: []spec.Container{{
			Name: "webserver", Image: "registry.local/webapp:1.0",
			Command:          []string{"serve"},
			RequestsMilliCPU: 250, RequestsMemMB: 128,
			LimitsMilliCPU: 500, LimitsMemMB: 256,
			Port: appTargetPort,
		}},
		VolumeSeed: "seed-0451",
	})
}

// AppService builds the Service exposing one application deployment.
func AppService(name string) *spec.Service {
	return spec.NewAppService(spec.DefaultNamespace, name, name,
		spec.ServicePort{Port: appPort, TargetPort: appTargetPort, Protocol: "TCP"})
}

// Driver executes one workload against a cluster as the kbench user.
type Driver struct {
	Cluster *cluster.Cluster
	User    *apiserver.Client
	Kind    Kind
}

// NewDriver builds a driver for the given workload.
func NewDriver(c *cluster.Cluster, kind Kind) *Driver {
	return &Driver{Cluster: c, User: c.Client(UserIdentity), Kind: kind}
}

// Setup creates the resource instances the workload requires before the
// injection (§IV-C "the scenario setup creates all the resource instances
// that are required by the orchestration workloads before the injection"),
// then waits for them to settle.
func (d *Driver) Setup() {
	n := 0 // the deploy workload creates everything itself
	switch d.Kind {
	case ScaleUp:
		n = scaleDeployments
	case Failover:
		n = failoverDeploys
	case Policy:
		n = policyDeployments
	}
	if n > 0 {
		d.createApps(n)
	}
}

// createApps creates the first n applications, each a Deployment and then its
// Service, and waits for them to roll out.
func (d *Driver) createApps(n int) {
	for i := 0; i < n; i++ {
		_ = d.User.Create(AppDeployment(AppName(i), deployReplicas))
		_ = d.User.Create(AppService(AppName(i)))
	}
	d.awaitReady(n, deployReplicas)
}

// Run performs the workload operations. It drives the simulation loop and
// returns when the operations completed or the kbench wait bound expired.
func (d *Driver) Run() {
	switch d.Kind {
	case Deploy:
		d.createApps(deployDeployments)
	case ScaleUp:
		for step := 0; step < scaleSteps; step++ {
			target := int64(deployReplicas + step + 1)
			for i := 0; i < scaleDeployments; i++ {
				d.scaleTo(AppName(i), target)
			}
			if step < scaleSteps-1 {
				d.Cluster.Loop.RunUntil(d.Cluster.Loop.Now() + scaleStepDelay)
			}
		}
		d.awaitReady(scaleDeployments, deployReplicas+scaleSteps)
	case Failover:
		victim := d.taintBusiestNode()
		d.awaitFailover(victim)
	case Policy:
		d.runPolicy()
	}
}

// runPolicy drives the governance mix: each round creates one policy-violating
// canary pod (passes the apiserver's structural validation; only the admission
// chain can deny it) and scales the compliant deployments, then sleeps to the
// next round. No readiness wait at the end — the workload's outcome is read
// off the admission counters and the availability window, not a rollout.
func (d *Driver) runPolicy() {
	for round := 0; round < policyRounds; round++ {
		_ = d.User.Create(canaryPod(round))
		target := int64(deployReplicas + round%2)
		for i := 0; i < policyDeployments; i++ {
			d.scaleTo(AppName(i), target)
		}
		if round < policyRounds-1 {
			d.Cluster.Loop.RunUntil(d.Cluster.Loop.Now() + policyRoundDelay)
		}
	}
}

// canaryPod builds the round's policy-violating pod: a compliant image but no
// resource limits, so it violates exactly one policy (limits-policy). It is
// structurally valid — the apiserver admits it whenever the admission chain
// does not intervene — and a single skipped hook is enough to let it through,
// which is what makes per-hook webhook faults expose the fail-open
// enforcement loss.
func canaryPod(round int) *spec.Pod {
	return &spec.Pod{
		Metadata: spec.ObjectMeta{
			Name: fmt.Sprintf("canary-%d", round), Namespace: spec.DefaultNamespace,
			Labels: spec.AppLabels("canary"),
		},
		Spec: spec.PodSpec{
			Containers: []spec.Container{{
				Name: "canary", Image: "registry.local/canary:2.0",
				Command:          []string{"run"},
				RequestsMilliCPU: 50, RequestsMemMB: 32,
				Port: appTargetPort,
			}},
		},
	}
}

// awaitFailover waits until the tainted node is drained of application pods
// AND every deployment is back to full readiness (or the kbench bound
// expires) — the metric kbench reports for the failover scenario. The
// condition is evaluated on a watch-maintained pod/deployment view and the
// driver wakes on the exact event that completes the failover, instead of
// re-listing the namespace on a poll period.
func (d *Driver) awaitFailover(victim string) {
	if victim == "" {
		return
	}
	done := func(view *apiserver.Reflector) bool {
		drained := true
		view.ForEach(spec.KindPod, spec.DefaultNamespace, func(o spec.Object) bool {
			pod := o.(*spec.Pod)
			if pod.Active() && pod.Spec.NodeName == victim {
				drained = false
				return false
			}
			return true
		})
		if !drained {
			return false
		}
		for i := 0; i < failoverDeploys; i++ {
			obj, ok := view.Get(spec.KindDeployment, spec.DefaultNamespace, AppName(i))
			if !ok || obj.(*spec.Deployment).Status.ReadyReplicas < deployReplicas {
				return false
			}
		}
		return true
	}
	d.awaitCondition(done, spec.KindPod, spec.KindDeployment)
}

// awaitCondition drives the loop until cond holds over a watch-maintained
// view of the given kinds, or the kbench wait bound expires. The view's
// events (and its resync repairs) wake the driver; between events the loop
// runs freely, so the wait adds no polling traffic of its own.
func (d *Driver) awaitCondition(cond func(*apiserver.Reflector) bool, kinds ...spec.Kind) {
	loop := d.Cluster.Loop
	deadline := loop.Now() + requestTimeout
	var view *apiserver.Reflector
	view = apiserver.NewReflector(loop, d.User, readinessResync, func(apiserver.WatchEvent) {
		if cond(view) {
			loop.Stop()
		}
	}, kinds...)
	view.Start()
	defer view.Stop()
	for loop.Now() < deadline {
		if cond(view) {
			return
		}
		if !loop.RunUntilStopped(deadline) {
			// Deadline passed (or the queue drained / budget ran out): the
			// kbench bound expires like a real timeout.
			return
		}
	}
}

// TargetService returns the service the application client measures.
func (d *Driver) TargetService() (namespace, name string) {
	return spec.DefaultNamespace, AppName(0)
}

func (d *Driver) scaleTo(name string, replicas int64) {
	d.update(spec.KindDeployment, spec.DefaultNamespace, name, 3, func(o spec.Object) {
		o.(*spec.Deployment).Spec.Replicas = replicas
	})
}

// update writes mutate's change to one object, retrying a conflicting
// update like a real client would: each conflict waits 100 ms and re-reads,
// up to attempts tries. A failed read or any other error gives up.
func (d *Driver) update(kind spec.Kind, namespace, name string, attempts int, mutate func(spec.Object)) {
	for attempt := 0; attempt < attempts; attempt++ {
		obj, err := d.User.Get(kind, namespace, name)
		if err != nil {
			return
		}
		obj = spec.CloneForWrite(obj)
		mutate(obj)
		if err := d.User.Update(obj); err == nil || !errors.Is(err, apiserver.ErrConflict) {
			return
		}
		d.Cluster.Loop.RunUntil(d.Cluster.Loop.Now() + 100*time.Millisecond)
	}
}

// taintBusiestNode simulates a node failure through a NoExecute taint,
// "forcing the Pods running on the Node to be respawned onto available
// Nodes". It returns the tainted node's name.
func (d *Driver) taintBusiestNode() string {
	counts := make(map[string]int)
	d.User.Range(spec.KindPod, spec.DefaultNamespace, func(po spec.Object) bool {
		pod := po.(*spec.Pod)
		if pod.Active() && pod.Spec.NodeName != "" {
			counts[pod.Spec.NodeName]++
		}
		return true
	})
	var victim string
	best := -1
	for node, n := range counts {
		if n > best || (n == best && node < victim) {
			victim, best = node, n
		}
	}
	if victim == "" {
		return ""
	}
	// Conflicts with concurrent heartbeat writes are expected; retry like a
	// real kubectl invocation would.
	d.update(spec.KindNode, "", victim, 5, func(o spec.Object) {
		node := o.(*spec.Node)
		node.Spec.Taints = append(node.Spec.Taints, spec.Taint{Key: failoverTaintKey, Effect: spec.TaintNoExecute})
	})
	return victim
}

// awaitReady waits until all deployments report the desired ready replicas
// or the kbench bound expires. Readiness is tracked on a watch-maintained
// deployment view — the driver wakes on the status update that completes the
// rollout rather than polling Get per deployment per period.
func (d *Driver) awaitReady(deployments int, replicas int64) {
	d.awaitCondition(func(view *apiserver.Reflector) bool {
		for i := 0; i < deployments; i++ {
			obj, ok := view.Get(spec.KindDeployment, spec.DefaultNamespace, AppName(i))
			if !ok || obj.(*spec.Deployment).Status.ReadyReplicas < replicas {
				return false
			}
		}
		return true
	}, spec.KindDeployment)
}
