// Package campaign implements the fault/error injection campaign manager of
// §IV-C: golden runs, wire-format field recording, campaign generation (bit
// flips, data-type sets, message drops, serialization-byte corruptions,
// occurrence triggers), experiment execution, and result aggregation into
// the paper's tables and figures.
package campaign

import (
	"sync"
	"time"

	"github.com/mutiny-sim/mutiny/internal/classify"
	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// Experiment timeline constants.
const (
	bootstrapDeadline = 30 * time.Second
	// eventBudget bounds one experiment's total simulation events. Nominal
	// experiments use well under 100k; only runaway feedback loops
	// (uncontrolled replication churning against evictions and quota)
	// approach it, and they are Sta/Out-class by then. The cap plays the
	// role of the paper's fixed experiment duration on a real testbed.
	eventBudget = 500_000
	// windowLength spans the client's 30 s plus steady-state margin.
	windowLength = 45 * time.Second
	// opStartDelay is the gap between client start and workload operations.
	opStartDelay = time.Second
)

// Spec describes one experiment: a workload plus (optionally) one injection.
type Spec struct {
	Workload  workload.Kind
	Injection *inject.Injection // nil for golden runs
	Seed      int64
}

// Result is the outcome of one experiment.
type Result struct {
	// Spec never crosses the shard wire: the merger regenerates it.
	Spec        Spec `json:"-"`
	OF          classify.OF
	CF          classify.CF
	Z           float64
	Report      inject.Report
	UserErrors  int
	PodsCreated int
	// FailoverMillis / StaleReadMillis carry the HA control-plane windows
	// measured by the collector (milliseconds of simulated time the control
	// plane was unresponsive, and some live store replica served stale
	// reads). Zero on single-apiserver clusters.
	FailoverMillis  float64
	StaleReadMillis float64
	// AdmissionOutageMillis / PolicyViolations carry the admission-campaign
	// trade-off measured by the collector: milliseconds of the window a
	// fail-closed hook was unreachable (write-availability outage), and
	// policy-violating objects admitted past a skipped hook (enforcement-
	// integrity loss). Zero without a webhook chain.
	AdmissionOutageMillis float64
	PolicyViolations      int
	// TopologyDisruptionMillis / TopologyRecoveryMillis carry the topology-
	// campaign windows measured by the collector: milliseconds of the window
	// some zone or node link was cut, and milliseconds after the links were
	// restored before the cluster re-converged. Zero on flat clusters.
	TopologyDisruptionMillis float64
	TopologyRecoveryMillis   float64
	// PropPersisted / PropErrored serve the Table VI propagation analysis.
	PropPersisted bool
	PropErrored   bool
}

// Runner executes experiments and caches per-workload baselines. A Runner is
// safe for concurrent use: experiments are isolated simulations, and the
// baseline cache is built exactly once per workload behind a per-kind guard
// (concurrent callers block until the build finishes).
type Runner struct {
	// GoldenRuns per workload (the paper uses 100).
	GoldenRuns int
	// ClusterConfig template; it is cloned (deep, including the pointer-typed
	// option structs) and stamped with the per-experiment seed for every run,
	// so concurrent workers never share mutable option state.
	ClusterConfig cluster.Config
	// Parallelism bounds the worker goroutines used to build golden
	// baselines (0 or 1 = sequential). RunCampaign sets it from
	// Config.Parallelism; the baseline itself is bit-identical either way,
	// because observations are collected in golden-seed order.
	Parallelism int
	// ShareBootstrap enables the bootstrapped-cluster fast path: one settled
	// bootstrap (plus scenario setup) per workload kind is captured as a
	// cluster.Snapshot and forked per experiment, so only the injection
	// window is simulated. The bootstrap runs under a canonical per-workload
	// seed; the forked window runs under the per-experiment seed. Off (the
	// default) keeps the legacy full-replay path, bit-identical to previous
	// releases; on preserves classification output per the equivalence
	// contract documented in the cluster package, but not bit-level equality
	// of individual observations.
	ShareBootstrap bool

	mu        sync.Mutex
	baselines map[workload.Kind]*baselineEntry
	snapshots map[workload.Kind]*snapshotEntry

	// workerMu guards idle, the stack of released Workers. Experiment
	// execution acquires a Worker (reusing an idle one or building a new
	// one), runs any number of experiments on it, and releases it — one
	// lock round-trip per acquire/release, never per experiment.
	workerMu sync.Mutex
	idle     []*Worker
}

// A Worker is one campaign execution lane. It owns the mutable state that
// outlives an experiment — the classify.BufferPool recycling series buffers,
// the application client's record buffer, and one rewound cluster per
// bootstrap snapshot — so two workers running experiments concurrently share
// only immutable data (golden baselines, bootstrap snapshots, the sealed
// decoded objects) and the Runner's guard cells. A Worker must not run two
// experiments at once; the Runner hands each one to exactly one goroutine at
// a time (see forEachWorker).
type Worker struct {
	r *Runner
	// pool recycles per-experiment series buffers. Run releases an
	// observation's buffers after classification; golden observations are
	// retained by baselines and therefore never released.
	pool *classify.BufferPool
	// records is the application client's request log, lent to each
	// experiment's client: nothing reads it after Collector.Finish.
	records []workload.RequestRecord
	// clusters holds, per bootstrap snapshot, the cluster this worker forked
	// from it, rewound (empty, component graph intact) between experiments:
	// the next experiment restores it in place instead of building and
	// discarding a whole cluster. An entry is taken out while its experiment
	// runs, so a panic in an experiment loses the cluster, never reuses it
	// half-way.
	clusters map[*cluster.Snapshot]*cluster.Cluster
}

// baselineEntry guards one workload's golden-run build.
type baselineEntry struct {
	once     sync.Once
	baseline *classify.Baseline
	golden   []*classify.Observation
}

// snapshotEntry guards one workload's shared-bootstrap capture.
type snapshotEntry struct {
	once sync.Once
	snap *cluster.Snapshot
}

// NewRunner returns a Runner with paper-default settings.
func NewRunner() *Runner {
	return &Runner{GoldenRuns: 100}
}

// acquireWorker pops an idle Worker or builds a fresh one. Pair with
// releaseWorker so the worker's pool is reused.
func (r *Runner) acquireWorker() *Worker {
	r.workerMu.Lock()
	defer r.workerMu.Unlock()
	if n := len(r.idle); n > 0 {
		w := r.idle[n-1]
		r.idle = r.idle[:n-1]
		return w
	}
	return &Worker{r: r, pool: classify.NewBufferPool()}
}

// releaseWorker returns a Worker to the idle stack.
func (r *Runner) releaseWorker(w *Worker) {
	r.workerMu.Lock()
	r.idle = append(r.idle, w)
	r.workerMu.Unlock()
}

// guardCell returns (creating if needed) the guard cell for key in m, under
// mu. Shared by the Runner's baseline and snapshot cells and the process-wide
// snapshot cache.
func guardCell[K comparable, E any](mu *sync.Mutex, m *map[K]*E, key K) *E {
	mu.Lock()
	defer mu.Unlock()
	if *m == nil {
		*m = make(map[K]*E)
	}
	e, ok := (*m)[key]
	if !ok {
		e = new(E)
		(*m)[key] = e
	}
	return e
}

// entry returns (creating if needed) the baseline guard cell for a workload.
func (r *Runner) entry(kind workload.Kind) *baselineEntry {
	return guardCell(&r.mu, &r.baselines, kind)
}

// snapshotEntryFor returns (creating if needed) the snapshot cell for a
// workload.
func (r *Runner) snapshotEntryFor(kind workload.Kind) *snapshotEntry {
	return guardCell(&r.mu, &r.snapshots, kind)
}

// snapshotFor returns (capturing if needed) the shared bootstrap snapshot
// for a workload: cluster bootstrap, settling, and scenario setup under the
// workload's canonical seed, captured at the settled instant. Snapshots are
// shared process-wide (see snapcache.go): the per-Runner cell only resolves
// the cache key once, and the capture itself runs at most once per
// (config, workload) in the whole process, no matter how many Runners ask.
func (r *Runner) snapshotFor(kind workload.Kind) *cluster.Snapshot {
	e := r.snapshotEntryFor(kind)
	e.once.Do(func() {
		cfg := r.ClusterConfig
		cfg.Seed = bootstrapSeed(kind)
		shared := sharedSnapshotEntry(snapshotCacheKey(cfg, kind))
		shared.once.Do(func() {
			cl := cluster.New(cfg)
			cl.Loop.SetEventBudget(eventBudget)
			cl.Start()
			cl.AwaitSettled(bootstrapDeadline)
			driver := workload.NewDriver(cl, kind)
			driver.Setup()
			shared.snap = cl.Snapshot()
		})
		e.snap = shared.snap
	})
	return e.snap
}

// Baseline returns (building if needed) the golden baseline for a workload.
// The build runs at most once even under concurrent callers; golden runs are
// themselves fanned out across Parallelism workers, with observations slotted
// by golden-seed index so the resulting baseline is deterministic.
func (r *Runner) Baseline(kind workload.Kind) *classify.Baseline {
	e := r.entry(kind)
	e.once.Do(func() {
		n := r.GoldenRuns
		if n <= 0 {
			n = 100
		}
		obs := make([]*classify.Observation, n)
		forEachWorker(n, r.Parallelism, r, func(w *Worker, i int) {
			obs[i] = w.runExperiment(Spec{Workload: kind, Seed: goldenSeed(kind, i)}, true).obs
		})
		e.golden = obs
		e.baseline = classify.BuildBaseline(obs)
	})
	return e.baseline
}

// GoldenObservations returns the cached golden observations (building the
// baseline first if needed).
func (r *Runner) GoldenObservations(kind workload.Kind) []*classify.Observation {
	r.Baseline(kind)
	return r.entry(kind).golden
}

// Run executes one experiment on a borrowed worker and classifies it. The
// campaign engine's fan-out path holds a Worker per goroutine and calls
// Worker.Run directly; this convenience wrapper serves external callers.
func (r *Runner) Run(spec Spec) *Result {
	w := r.acquireWorker()
	defer r.releaseWorker(w)
	return w.Run(spec)
}

// RunObserved executes one experiment on a borrowed worker and returns both
// the classified result and the raw observation.
func (r *Runner) RunObserved(spec Spec) (*Result, *classify.Observation) {
	w := r.acquireWorker()
	defer r.releaseWorker(w)
	return w.RunObserved(spec)
}

// Run executes one experiment and classifies it. The observation backing the
// classification is recycled into the worker's buffer pool — callers that
// need the raw observation use RunObserved, whose result is never pooled.
func (w *Worker) Run(spec Spec) *Result {
	res, obs := w.RunObserved(spec)
	w.pool.Release(obs)
	return res
}

// RunObserved executes one experiment and returns both the classified result
// and the raw observation (e.g. for rendering Figure 5's time series).
func (w *Worker) RunObserved(spec Spec) (*Result, *classify.Observation) {
	baseline := w.r.Baseline(spec.Workload)
	exp := w.runExperiment(spec, true)
	return exp.observed(spec, baseline), exp.obs
}

// observed classifies an observation-path experiment against the baseline.
func (e experiment) observed(spec Spec, baseline *classify.Baseline) *Result {
	obs := e.obs
	res := &Result{
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
		res.Report = e.report
	}
	return res
}

// RunPropagation executes a component→apiserver channel experiment and
// reports the Table VI outcome columns.
//
// Unlike the observation path, this path runs without the application
// client and collector (collect=false): Table VI audits the control-plane
// request stream, and the client's VIP traffic never touches the API
// server. The consequence — intentional, and kept for bit-compatibility
// with prior campaigns — is that Result.UserErrors here counts only the
// kbench driver's API requests over a window without client-induced
// dynamics, while the main path's Observation.UserErrors is measured with
// the client (and the collector's periodic reads) running.
func (r *Runner) RunPropagation(spec Spec) *Result {
	w := r.acquireWorker()
	defer r.releaseWorker(w)
	return w.RunPropagation(spec)
}

// RunPropagation is Runner.RunPropagation on this worker's state.
func (w *Worker) RunPropagation(spec Spec) *Result {
	return w.runExperiment(spec, false).propagated(spec)
}

// propagated reports a propagation-path experiment's Table VI columns.
func (e experiment) propagated(spec Spec) *Result {
	return &Result{
		Spec:          spec,
		Report:        e.report,
		UserErrors:    e.userErrors,
		PropPersisted: e.tamperedPersisted > 0,
		PropErrored:   e.tamperedErrored > 0,
	}
}

// bootCluster brings up the cluster for one experiment: resumed from the
// workload's shared bootstrap snapshot when ShareBootstrap is on — in the
// worker's own cluster for that snapshot if it has one, in a fresh fork
// otherwise — or the legacy full replay (bootstrap, settle, scenario setup —
// all under the per-experiment seed). Either way the returned cluster is
// settled, has the scenario set up, and carries an attached (not yet armed)
// injector. snap is the snapshot the cluster resumed from, nil for a replay.
func (w *Worker) bootCluster(spec Spec) (cl *cluster.Cluster, snap *cluster.Snapshot, injector *inject.Injector, driver *workload.Driver) {
	r := w.r
	if r.ShareBootstrap {
		snap = r.snapshotFor(spec.Workload)
		if cl = w.clusters[snap]; cl != nil {
			delete(w.clusters, snap)
			snap.Restore(cl, spec.Seed)
		} else {
			cl = snap.Fork(spec.Seed)
		}
		cl.Loop.SetEventBudget(eventBudget)
		injector = inject.New(cl.Loop)
		cl.AttachInjector(injector)
		return cl, snap, injector, workload.NewDriver(cl, spec.Workload)
	}
	cfg := r.ClusterConfig
	cfg.Seed = spec.Seed
	cl = cluster.New(cfg)
	cl.Loop.SetEventBudget(eventBudget)
	injector = inject.New(cl.Loop)
	cl.AttachInjector(injector)
	cl.Start()
	cl.AwaitSettled(bootstrapDeadline)
	driver = workload.NewDriver(cl, spec.Workload)
	driver.Setup()
	return cl, nil, injector, driver
}

// experiment is what one run of the lifecycle yields. Everything in it is a
// value or owned by the caller: the cluster it was read from is rewound (or
// stopped) by the time runExperiment returns.
type experiment struct {
	obs    *classify.Observation // nil without collect
	report inject.Report
	// The audit trail's numbers for the propagation analysis (Table VI).
	userErrors, tamperedPersisted, tamperedErrored int
	// Where the simulation stood when the window closed: the cheapest
	// witnesses that two runs of a spec executed the same simulation
	// (TestRewindMatchesFork compares them).
	events     int64 // loop events executed, bootstrap included
	storeRev   int64
	storeBytes int64
}

// runExperiment executes the experiment lifecycle of Figure 4 — cluster
// (re)start, scenario set-up, client start, injector programming, workload
// execution, and data collection — shared by the observation path (collect
// = true: application client plus collector attached) and the propagation
// path (collect = false: audit-only, see RunPropagation). A cluster resumed
// from a snapshot is rewound at the end, not stopped, and kept for the
// worker's next experiment on that snapshot — unless the experiment blew it
// up (cluster.Snapshot.Outgrown), in which case it is simply let go, like a
// replayed one.
func (w *Worker) runExperiment(spec Spec, collect bool) experiment {
	cl, snap, injector, driver := w.bootCluster(spec)

	var client *workload.Client
	var collector *classify.Collector
	if collect {
		ns, svc := driver.TargetService()
		client = workload.NewClient(cl, ns, svc)
		client.Records = w.records[:0]
		collector = classify.NewCollector(cl)
		collector.UsePool(w.pool)
		collector.Start()
		client.Start()
	}
	if spec.Injection != nil {
		injector.Arm(*spec.Injection)
	}
	windowStart := cl.Loop.Now()
	cl.Loop.RunUntil(windowStart + opStartDelay)
	driver.Run()
	cl.Loop.RunUntil(windowStart + windowLength)

	var exp experiment
	if collect {
		exp.obs = collector.Finish(client)
		w.records = client.Records
	}
	exp.report = injector.Report()
	audit := cl.Server.Audit()
	exp.userErrors = audit.ErrorsBy(workload.UserIdentity)
	exp.tamperedPersisted = audit.TamperedPersisted()
	exp.tamperedErrored = audit.TamperedErrored()
	exp.events = cl.Loop.EventsExecuted()
	exp.storeRev = cl.Backend.Revision()
	exp.storeBytes = cl.Backend.SizeBytes()

	switch {
	case snap == nil:
		cl.Stop()
	case !snap.Outgrown(cl):
		cl.Rewind()
		if w.clusters == nil {
			w.clusters = make(map[*cluster.Snapshot]*cluster.Cluster)
		}
		w.clusters[snap] = cl
	}
	return exp
}

// Record performs a nominal run of a workload with the wire recorder
// attached from cluster bootstrap (so node registrations, leases, and
// system workloads are inventoried too) and returns the recorded fields.
func (r *Runner) Record(kind workload.Kind) *inject.Recorder {
	cfg := r.ClusterConfig
	cfg.Seed = goldenSeed(kind, 999)
	cl := cluster.New(cfg)
	rec := inject.NewRecorder()
	cl.Server.SetStoreWriteHook(rec.Hook())
	cl.Start()
	cl.AwaitSettled(bootstrapDeadline)
	driver := workload.NewDriver(cl, kind)
	driver.Setup()
	start := cl.Loop.Now()
	cl.Loop.RunUntil(start + opStartDelay)
	driver.Run()
	cl.Loop.RunUntil(start + windowLength)
	cl.Stop()
	return rec
}

func goldenSeed(kind workload.Kind, i int) int64 {
	var base int64
	switch kind {
	case workload.Deploy:
		base = 10_000
	case workload.ScaleUp:
		base = 20_000
	case workload.Failover:
		base = 30_000
	case workload.Policy:
		base = 40_000
	default:
		base = 90_000
	}
	return base + int64(i)
}

// bootstrapSeed is the canonical per-workload seed the shared bootstrap runs
// under (the seed-split's bootstrap half). It is disjoint from every golden
// seed (base+0..GoldenRuns) and from Record's base+999.
func bootstrapSeed(kind workload.Kind) int64 { return goldenSeed(kind, 555_555) }
