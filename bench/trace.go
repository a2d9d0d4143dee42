package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"time"

	"github.com/mutiny-sim/mutiny/internal/campaign"
	"github.com/mutiny-sim/mutiny/internal/classify"
	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// outDir receives the spans and the CPU profile of a traced run, relative to
// the directory the benchmark is started from.
const outDir = "bench/out"

const (
	// profileHz is the CPU profile's sampling rate. Linux delivers at most
	// one profiling signal per thread and scheduler tick (CONFIG_HZ, 250 on
	// the reference box), so asking for more yields no more samples.
	profileHz = 250
	// minProfileSamples is the least number of profile ticks the cpu_share
	// rows rest on: a 10 % share then carries a standard error of 0.55
	// points. The 5,000 the issue asked for would take 20 s of traced
	// passes per run.
	minProfileSamples = 3000
	// maxTracedPasses bounds the traced phase (and sizes the span buffer)
	// should the profiler deliver fewer samples than its rate promises.
	maxTracedPasses = 12
	// untracedPasses is the number of Runner-driven passes whose median is
	// the reference of trace.overhead_pct.
	untracedPasses = 3
)

// span is one timed interval of a traced run. Spans of one experiment share
// its spec index as trace id; set-up spans use trace -1.
type span struct {
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the lifecycle can run untraced.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// add closes a span opened at start and returns its duration.
func (t *tracer) add(trace int, name, parent string, start int64) int64 {
	if t == nil {
		return 0
	}
	end := t.now()
	t.spans = append(t.spans, span{Trace: trace, Name: name, Parent: parent, Start: start, End: end})
	return end - start
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics collects the per-layer metrics of a traced run in the order
// they are produced, which is the order BENCHMARK.json lists them in.
type layerMetrics struct {
	names  []string
	values map[string]metric
}

func (m *layerMetrics) set(name string, value float64, unit string) {
	if m.values == nil {
		m.values = make(map[string]metric)
	}
	m.names = append(m.names, name)
	m.values[name] = metric{Value: value, Unit: unit}
}

// tracedSetUp performs one cold set-up with a span around each stage and
// returns what the traced passes need: the Runner (for baselines), the spec
// list, and a hand-captured bootstrap snapshot per workload kind.
//
// campaign.baseline_ms is the whole Runner.Baseline call on a cold snapshot
// cache, as a campaign pays it: it contains a bootstrap and a capture of its
// own, whose hand-driven twins are cluster.boot_ms and cluster.snapshot_ms.
func tracedSetUp(w *workloadDef, tr *tracer, m *layerMetrics) (*campaign.Runner, []item, map[workload.Kind]*cluster.Snapshot) {
	campaign.ClearSnapshotCache()
	r := newRunner(w.cfg, w.clients)

	var recordNs int64
	t := tr.now()
	items := w.build(func(kind workload.Kind) *inject.Recorder {
		t := tr.now()
		rec := r.Record(kind)
		recordNs += tr.add(-1, "campaign.record", "setup", t)
		return rec
	}, w.cfg)
	buildNs := tr.add(-1, "campaign.build", "setup", t)

	var bootNs, snapNs, baselineNs, viewNs int64
	snaps := make(map[workload.Kind]*cluster.Snapshot)
	for _, kind := range kindsOf(items) {
		t = tr.now()
		r.Baseline(kind)
		baselineNs += tr.add(-1, "campaign.baseline", "setup", t)

		t = tr.now()
		cl, _ := bootSettled(w.cfg, kind, bootstrapSeed(kind), nil)
		bootNs += tr.add(-1, "cluster.boot", "setup", t)
		t = tr.now()
		snaps[kind] = cl.Snapshot()
		snapNs += tr.add(-1, "cluster.snapshot", "setup", t)
		t = tr.now()
		_ = snaps[kind].WorkerView() // timed only: one traced worker forks from the snapshot itself
		viewNs += tr.add(-1, "cluster.worker_view", "setup", t)
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	m.set("campaign.record_ms", ms(recordNs), "ms")
	m.set("campaign.generate_ms", ms(buildNs-recordNs), "ms")
	m.set("cluster.boot_ms", ms(bootNs), "ms")
	m.set("cluster.snapshot_ms", ms(snapNs), "ms")
	m.set("campaign.baseline_ms", ms(baselineNs), "ms")
	m.set("cluster.worker_view_ms", ms(viewNs), "ms")
	return r, items, snaps
}

// tracedPass sweeps the list once through the hand-driven lifecycle. Like the
// reference passes it is read against, it is not calibrated: its times are
// only set against theirs, measured in the same minute.
func tracedPass(l *lifecycle, items []item, order []int) (pass, []experimentCounts) {
	p := pass{expMillis: make([]float64, len(items)), outcomes: make([]outcome, len(items))}
	counts := make([]experimentCounts, len(items))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, i := range order {
		t := time.Now()
		p.outcomes[i], counts[i] = tracedOne(l, i, items[i])
		p.expMillis[i] = float64(time.Since(t).Nanoseconds()) / 1e6
	}
	p.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	p.gcCycles = after.NumGC - before.NumGC
	return p, counts
}

func tracedOne(l *lifecycle, i int, it item) (o outcome, c experimentCounts) {
	defer func() {
		if recover() != nil {
			o = outcome{panicked: true}
		}
	}()
	res, counts := l.run(i, it)
	return outcomeOf(res), counts
}

// gcCPUSeconds reads the runtime's estimate of CPU time spent in the garbage
// collector since the process started.
func gcCPUSeconds() float64 {
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}

// measureTraced is the traced run of one workload: a set-up with spans,
// Runner-driven reference passes, then hand-driven passes under a CPU
// profile, then the layer drivers. Its numbers are never mixed with the
// end-to-end ones.
func measureTraced(w *workloadDef, seed int64, out io.Writer) (result, error) {
	env := startEnvironment()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	tr := &tracer{epoch: time.Now()}
	m := &layerMetrics{}

	runner, items, snaps := tracedSetUp(w, tr, m)
	order := runOrder(len(items), seed)
	want, err := loadGolden(w.list)
	if err != nil {
		return result{}, err
	}
	chk := &checker{items: items, want: want}
	// The span buffer is sized before the reference passes too: the live
	// heap sets how often the collector runs, and both kinds of pass must
	// run against the same one for their difference to be the tracing.
	const spansPerExperiment = 12
	tr.spans = append(make([]span, 0, len(tr.spans)+spansPerExperiment*len(items)*maxTracedPasses), tr.spans...)

	// Untraced reference, one worker, through the product's own path.
	reference := newRunner(w.cfg, 1)
	for _, kind := range kindsOf(items) {
		reference.Baseline(kind)
	}
	chk.check(rawPass(reference, items, order, 1)) // warm-up
	var untracedWalls, untracedExpMillis []float64
	for i := 0; i < untracedPasses; i++ {
		p := rawPass(reference, items, order, 1)
		chk.check(p)
		untracedWalls = append(untracedWalls, p.wall)
		untracedExpMillis = p.expMillis
	}

	// Traced passes under the CPU profile, until it holds enough samples.
	l := &lifecycle{
		cfg: w.cfg, runner: runner, snaps: snaps,
		pool: classify.NewBufferPool(), agg: campaign.NewAggregate(), tracer: tr,
	}
	var profile bytes.Buffer
	// pprof.StartCPUProfile always asks for 100 Hz; setting the rate first
	// makes its own request a no-op (the runtime prints one line about it).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&profile); err != nil {
		return result{}, fmt.Errorf("starting CPU profile: %w", err)
	}
	var tracedWalls []float64
	var counts []experimentCounts
	var gcCycles uint32
	cpu0, gc0 := processCPUSeconds(), gcCPUSeconds()
	firstSpan := len(tr.spans)
	for len(tracedWalls) < maxTracedPasses && processCPUSeconds()-cpu0 < 1.1*minProfileSamples/profileHz {
		p, c := tracedPass(l, items, order)
		chk.check(p)
		tracedWalls = append(tracedWalls, p.wall)
		counts = append(counts, c...)
		gcCycles += p.gcCycles
	}
	pprof.StopCPUProfile()
	cpuUsed, gcUsed := processCPUSeconds()-cpu0, gcCPUSeconds()-gc0
	experiments := float64(len(counts))

	spanMetrics(tr.spans[firstSpan:], experiments, m)
	m.set("trace.overhead_pct", 100*(median(tracedWalls)/median(untracedWalls)-1), "%")
	countMetrics(counts, m)
	m.set("runtime.gc_cycles_per_kexp", 1000*float64(gcCycles)/experiments, "count")
	m.set("runtime.gc_cpu_share", gcUsed/cpuUsed, "share")
	m.set("campaign.exp_ms_p90", quantile(untracedExpMillis, 9, 10), "ms")
	m.set("campaign.exp_ms_max", slices.Max(untracedExpMillis), "ms")

	samples, err := parseProfile(profile.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("reading CPU profile: %w", err)
	}
	shares, ticks := cpuShares(samples)
	for _, layer := range productLayers {
		m.set(layer+".cpu_share", shares[layer], "share")
	}
	m.set(bucketGCBackground+".cpu_share", shares[bucketGCBackground], "share")
	m.set(bucketOther+".cpu_share", shares[bucketOther], "share")
	m.set("profile.samples", float64(ticks), "count")

	if err := layerDrivers(m); err != nil {
		return result{}, err
	}

	if err := tr.write(filepath.Join(outDir, w.name+".spans.jsonl")); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(filepath.Join(outDir, w.name+".cpu.pprof"), profile.Bytes(), 0o644); err != nil {
		return result{}, fmt.Errorf("writing CPU profile: %w", err)
	}

	fmt.Fprintf(out, "workload %s (traced): %d specs, seed %d, %d untraced + %d traced passes, spans and profile in %s/\n",
		w.name, len(items), seed, untracedPasses, len(tracedWalls), outDir)
	env.report(out)
	for _, name := range m.names {
		v := m.values[name]
		fmt.Fprintf(out, "  %-40s %14.4f %s\n", name, v.Value, v.Unit)
	}
	chk.report(out)
	return chk.result(m.values), nil
}

// lifecycleSpans maps each lifecycle span to its metric, in report order.
var lifecycleSpans = []struct{ span, metric string }{
	{spanFork, "cluster.fork_us"},
	{spanArm, "inject.arm_us"},
	{spanCollectorStart, "classify.collector_start_us"},
	{spanClientStart, "workload.client_start_us"},
	{spanWindow, "sim.window_us"},
	{spanDriverRun, "workload.driver_run_us"},
	{spanFinish, "classify.finish_us"},
	{spanClassify, "classify.classify_us"},
	{spanStop, "cluster.stop_us"},
	{spanAggregate, "campaign.aggregate_us"},
}

// spanMetrics turns the experiment spans into mean microseconds per
// experiment, and trace.cover: the share of experiment wall-clock that the
// spans directly below the experiment account for.
func spanMetrics(spans []span, experiments float64, m *layerMetrics) {
	total := make(map[string]int64)
	var covered int64
	for _, s := range spans {
		total[s.Name] += s.End - s.Start
		if s.Parent == spanExperiment {
			covered += s.End - s.Start
		}
	}
	for _, ls := range lifecycleSpans {
		m.set(ls.metric, float64(total[ls.span])/1e3/experiments, "us")
	}
	m.set("sim.window_self_us", float64(total[spanWindow]-total[spanDriverRun])/1e3/experiments, "us")
	m.set("trace.cover", float64(covered)/float64(total[spanExperiment]), "share")
}

// countMetrics aggregates the boundary counts of all traced experiments.
func countMetrics(counts []experimentCounts, m *layerMetrics) {
	var sum experimentCounts
	exhausted := 0
	for _, c := range counts {
		sum.events += c.events
		sum.windowNs += c.windowNs
		sum.storeWrites += c.storeWrites
		sum.storeBytes += c.storeBytes
		sum.decodeHits += c.decodeHits
		sum.decodeMisses += c.decodeMisses
		sum.decodeInvalid += c.decodeInvalid
		sum.podsCreated += c.podsCreated
		if c.budgetExhausted {
			exhausted++
		}
	}
	n := float64(len(counts))
	m.set("sim.events_per_exp", float64(sum.events)/n, "count")
	m.set("sim.ns_per_event", float64(sum.windowNs)/float64(sum.events), "ns")
	m.set("sim.budget_exhausted_share", float64(exhausted)/n, "share")
	m.set("store.writes_per_exp", float64(sum.storeWrites)/n, "count")
	m.set("store.size_kb_end", float64(sum.storeBytes)/1024/n, "KiB")
	m.set("apiserver.decode_hit_ratio", float64(sum.decodeHits)/float64(sum.decodeHits+sum.decodeMisses), "ratio")
	m.set("apiserver.decode_invalidations_per_exp", float64(sum.decodeInvalid)/n, "count")
	m.set("classify.pods_created_per_exp", float64(sum.podsCreated)/n, "count")
}
