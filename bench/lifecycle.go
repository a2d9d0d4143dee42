package main

import (
	"time"

	"github.com/mutiny-sim/mutiny/internal/campaign"
	"github.com/mutiny-sim/mutiny/internal/classify"
	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// The experiment timeline of internal/campaign (unexported there). The
// lifecycle below is only a faithful stand-in for Worker.runExperiment while
// these match; TestLifecycleMatchesRunner fails when they drift.
const (
	bootstrapDeadline = 30 * time.Second
	eventBudget       = 500_000
	windowLength      = 45 * time.Second
	opStartDelay      = time.Second
)

// bootstrapSeed is the canonical seed the campaign package captures a
// workload's shared bootstrap snapshot under.
func bootstrapSeed(kind workload.Kind) int64 {
	base := map[workload.Kind]int64{
		workload.Deploy: 10_000, workload.ScaleUp: 20_000,
		workload.Failover: 30_000, workload.Policy: 40_000,
	}[kind]
	return base + 555_555
}

// bootSettled boots a cluster under seed and runs the workload's scenario
// set-up: the state a bootstrap snapshot captures, and the state the replay
// regime reaches before every experiment. attach, if set, runs between New
// and Start, where the replay regime attaches its injector.
func bootSettled(cfg cluster.Config, kind workload.Kind, seed int64, attach func(*cluster.Cluster)) (*cluster.Cluster, *workload.Driver) {
	cfg = cfg.Clone()
	cfg.Seed = seed
	cl := cluster.New(cfg)
	cl.Loop.SetEventBudget(eventBudget)
	if attach != nil {
		attach(cl)
	}
	cl.Start()
	cl.AwaitSettled(bootstrapDeadline)
	driver := workload.NewDriver(cl, kind)
	driver.Setup()
	return cl, driver
}

// Span names of one experiment, in lifecycle order. sim.window contains
// workload.driver_run; every other span is a child of the experiment.
const (
	spanExperiment     = "experiment"
	spanFork           = "cluster.fork"
	spanArm            = "inject.arm"
	spanCollectorStart = "classify.collector_start"
	spanClientStart    = "workload.client_start"
	spanWindow         = "sim.window"
	spanDriverRun      = "workload.driver_run"
	spanFinish         = "classify.finish"
	spanStop           = "cluster.stop"
	spanClassify       = "classify.classify"
	spanAggregate      = "campaign.aggregate"
)

// experimentCounts are the counts read at the layer boundaries of one
// experiment, through public accessors only.
type experimentCounts struct {
	events          int64
	windowNs        int64
	budgetExhausted bool
	storeWrites     int64
	storeBytes      int64
	decodeHits      int64
	decodeMisses    int64
	decodeInvalid   int64
	podsCreated     int
}

// lifecycle drives experiments with the same public calls, in the same
// order, as campaign.Worker.runExperiment and Worker.RunObserved, so that a
// span can be recorded around each call into a layer.
type lifecycle struct {
	cfg    cluster.Config
	runner *campaign.Runner // golden baselines
	// snaps holds the bootstrap snapshot per workload kind; a kind without
	// one runs in the replay regime.
	snaps  map[workload.Kind]*cluster.Snapshot
	pool   *classify.BufferPool
	agg    *campaign.Aggregate
	tracer *tracer // nil: no spans
}

// run executes one experiment and returns its result and boundary counts.
func (l *lifecycle) run(trace int, it item) (*campaign.Result, experimentCounts) {
	spec := it.spec
	tr := l.tracer
	expStart := tr.now()

	// Boot: fork the snapshot (share regime) or replay the bootstrap.
	t := tr.now()
	var cl *cluster.Cluster
	var injector *inject.Injector
	var driver *workload.Driver
	if snap := l.snaps[spec.Workload]; snap != nil {
		cl = snap.Fork(spec.Seed)
		cl.Loop.SetEventBudget(eventBudget)
		tr.add(trace, spanFork, spanExperiment, t)
		t = tr.now()
		injector = inject.New(cl.Loop)
		cl.AttachInjector(injector)
		tr.add(trace, spanArm, spanExperiment, t)
		driver = workload.NewDriver(cl, spec.Workload)
	} else {
		cl, driver = bootSettled(l.cfg, spec.Workload, spec.Seed, func(cl *cluster.Cluster) {
			injector = inject.New(cl.Loop)
			cl.AttachInjector(injector)
		})
		tr.add(trace, spanFork, spanExperiment, t)
	}
	var counts experimentCounts
	events0 := cl.Loop.EventsExecuted()
	rev0 := cl.Backend.Revision()

	var client *workload.Client
	var collector *classify.Collector
	if !it.prop {
		t = tr.now()
		collector = classify.NewCollector(cl)
		collector.UsePool(l.pool)
		collector.Start()
		tr.add(trace, spanCollectorStart, spanExperiment, t)
		t = tr.now()
		ns, svc := driver.TargetService()
		client = workload.NewClient(cl, ns, svc)
		client.Start()
		tr.add(trace, spanClientStart, spanExperiment, t)
	}
	if spec.Injection != nil {
		t = tr.now()
		injector.Arm(*spec.Injection)
		tr.add(trace, spanArm, spanExperiment, t)
	}

	t = tr.now()
	windowStart := cl.Loop.Now()
	cl.Loop.RunUntil(windowStart + opStartDelay)
	td := tr.now()
	driver.Run()
	tr.add(trace, spanDriverRun, spanWindow, td)
	cl.Loop.RunUntil(windowStart + windowLength)
	counts.windowNs = tr.add(trace, spanWindow, spanExperiment, t)

	var obs *classify.Observation
	if !it.prop {
		t = tr.now()
		obs = collector.Finish(client)
		tr.add(trace, spanFinish, spanExperiment, t)
	}
	rep := injector.Report()
	audit := cl.Server.Audit()
	t = tr.now()
	cl.Stop()
	tr.add(trace, spanStop, spanExperiment, t)

	counts.events = cl.Loop.EventsExecuted() - events0
	counts.budgetExhausted = cl.Loop.BudgetExhausted()
	counts.storeWrites = cl.Backend.Revision() - rev0
	counts.storeBytes = cl.Backend.SizeBytes()
	for _, srv := range cl.Servers {
		h, m, inv := srv.DecodeCacheStats()
		counts.decodeHits += h
		counts.decodeMisses += m
		counts.decodeInvalid += inv
	}

	if it.prop {
		res := &campaign.Result{
			Spec:          spec,
			Report:        rep,
			UserErrors:    audit.ErrorsBy(workload.UserIdentity),
			PropPersisted: audit.TamperedPersisted() > 0,
			PropErrored:   audit.TamperedErrored() > 0,
		}
		tr.add(trace, spanExperiment, "", expStart)
		return res, counts
	}

	t = tr.now()
	baseline := l.runner.Baseline(spec.Workload)
	res := &campaign.Result{
		Spec:                  spec,
		OF:                    classify.ClassifyOF(obs, baseline),
		CF:                    classify.ClassifyCF(obs, baseline),
		Z:                     classify.ClientZ(obs, baseline),
		UserErrors:            obs.UserErrors,
		PodsCreated:           obs.PodsCreated,
		FailoverMillis:        obs.FailoverMillis,
		StaleReadMillis:       obs.StaleReadMillis,
		AdmissionOutageMillis: obs.AdmissionOutageMillis,
		PolicyViolations:      obs.PolicyViolations,

		TopologyDisruptionMillis: obs.TopologyDisruptedMillis,
		TopologyRecoveryMillis:   obs.TopologyRecoveryMillis,
	}
	if spec.Injection != nil {
		res.Report = rep
	}
	tr.add(trace, spanClassify, spanExperiment, t)
	counts.podsCreated = obs.PodsCreated
	l.pool.Release(obs)

	if l.agg != nil {
		t = tr.now()
		l.agg.Add(res)
		tr.add(trace, spanAggregate, spanExperiment, t)
	}
	tr.add(trace, spanExperiment, "", expStart)
	return res, counts
}
