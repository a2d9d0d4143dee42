package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mutiny-sim/mutiny/internal/campaign"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

const (
	// setup_s is the median of K cold set-ups: at least minSetups, and more
	// while they fit in setupPhase, up to maxSetups.
	minSetups  = 5
	maxSetups  = 15
	setupPhase = 2 * time.Second
	// minPasses is the floor of P, the number of measured passes.
	minPasses = 10
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the contract with the PR driver.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef declares an end-to-end metric: its unit, which direction is
// better, and the share of the parent's median by which it may worsen before
// a change counts as a regression. The spreads ten runs of one commit show
// on the reference box are held against these bounds in README.md,
// "Selfcheck". BENCHMARK.json repeats the table
// (TestBenchmarkJSONMatchesProgram).
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.10},
	{"exps_per_s", "1/s", "higher", 0.08},
	{"exp_ms_p50", "ms", "lower", 0.10},
	{"cpu_ms_per_exp", "ms", "lower", 0.08},
	{"allocs_per_exp", "count", "lower", 0.005},
	{"alloc_kb_per_exp", "KiB", "lower", 0.005},
	{"peak_rss_mb", "MiB", "lower", 0.05},
}

// setUp is what a campaign pays before its first injection: a fresh Runner
// with no cached bootstrap snapshot, the recorded and generated spec list,
// and the bootstrap snapshot plus golden baseline of every workload kind in
// the list. step is called between its stages and at its end: the only
// places where calibration slices fit into a set-up.
func (w *workloadDef) setUp(step func()) (*campaign.Runner, []item) {
	campaign.ClearSnapshotCache()
	r := newRunner(w.cfg, w.clients)
	record := func(kind workload.Kind) *inject.Recorder {
		rec := r.Record(kind)
		step()
		return rec
	}
	items := w.build(record, w.cfg)
	for _, kind := range kindsOf(items) {
		r.Baseline(kind)
		step()
	}
	return r, items
}

// runOne executes one experiment through the public Runner API. A panic is
// an outcome (a failed experiment), not the end of the run.
func runOne(r *campaign.Runner, it item) (o outcome) {
	defer func() {
		if recover() != nil {
			o = outcome{panicked: true}
		}
	}()
	if it.prop {
		return outcomeOf(r.RunPropagation(it.spec))
	}
	return outcomeOf(r.Run(it.spec))
}

// pass is one closed-loop sweep over the spec list. wall and cpu cover the
// experiments only: the time clients waited for calibration slices is taken
// out of wall, and the slices' CPU time belongs to another process. Dividing
// wall by wallFactor, and cpu or an experiment's time by cpuFactor,
// calibrates it (calibrate.go).
type pass struct {
	wall, cpu             float64 // seconds
	wallFactor, cpuFactor float64
	mallocs, bytes        float64
	gcCycles              uint32    // traced passes only
	expMillis             []float64 // host time per spec, by spec index
	outcomes              []outcome // by spec index
}

// runPass sweeps the list once in the given order: every client issues its
// next experiment when its previous one returns, and the pass ends when all
// have returned. Memory statistics are read outside the timed region, after
// a forced collection, so every pass starts from the same heap state. Client
// c interleaves slices of kernels[c]; with no kernels the pass is not
// calibrated (both factors are 1) and cannot fail: for passes that are only
// compared with passes of the same minute.
func runPass(r *campaign.Runner, items []item, order []int, clients int, kernels []*kernel) (pass, error) {
	p := pass{expMillis: make([]float64, len(items)), outcomes: make([]outcome, len(items))}
	cals := make([]calibration, clients)
	for c := range kernels {
		cals[c].kernel = kernels[c]
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPUSeconds()
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := range cals {
		go func(cal *calibration) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				i := order[k]
				t := time.Now()
				p.outcomes[i] = runOne(r, items[i])
				d := time.Since(t)
				p.expMillis[i] = float64(d.Nanoseconds()) / 1e6
				if cal.kernel != nil {
					cal.owe(d)
				}
			}
		}(&cals[c])
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	p.cpu = processCPUSeconds() - cpu0
	runtime.ReadMemStats(&after)
	p.mallocs = float64(after.Mallocs - before.Mallocs)
	p.bytes = float64(after.TotalAlloc - before.TotalAlloc)

	var cal calibration
	for _, c := range cals {
		cal.merge(c)
	}
	// Each client waits for its slices inside its own lane, so the pass is
	// longer by the mean wait per client.
	p.wall = wall - cal.waited.Seconds()/float64(clients)
	p.wallFactor, p.cpuFactor = cal.factors()
	return p, cal.err
}

// rawPass is an uncalibrated pass.
func rawPass(r *campaign.Runner, items []item, order []int, clients int) pass {
	p, _ := runPass(r, items, order, clients, nil) // fails only through a kernel
	return p
}

// checker counts experiments attempted and failed against the reference
// outcomes, keeping the first failing pass's differences for the report.
type checker struct {
	items     []item
	want      []string
	attempted int
	failed    int
	examples  []string
}

func (c *checker) check(p pass) {
	c.attempted += len(p.outcomes)
	failed, examples := diffGolden(c.want, outcomeLines(c.items, p.outcomes))
	c.failed += failed
	if len(c.examples) == 0 {
		c.examples = examples
	}
}

// report prints the outcome count and the kept differences.
func (c *checker) report(out io.Writer) {
	fmt.Fprintf(out, "  outcomes: %d attempted, %d failed\n", c.attempted, c.failed)
	for _, d := range c.examples {
		fmt.Fprintln(out, "    mismatch:", d)
	}
}

// result wraps a run's metrics with its outcome verdict.
func (c *checker) result(metrics map[string]metric) result {
	return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: metrics}
}

// measureEndToEnd runs the untraced protocol on one workload: K cold
// set-ups, one warm-up pass, P measured passes over the identical list.
// Every reported time is calibrated; the raw medians are printed beside.
func measureEndToEnd(w *workloadDef, seed int64, seconds int, updateGolden bool, out io.Writer) (res result, err error) {
	env := startEnvironment()
	kernels, err := startKernels(w.clients)
	if err != nil {
		return result{}, err
	}
	defer func() { err = errors.Join(err, stopKernels(kernels)) }()

	// A set-up is a few long calls into the program, so its slices come in
	// pairs at its start, between its stages and at its end.
	var setups, rawSetups []float64
	var runner *campaign.Runner
	var items []item
	for phase := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(phase) < setupPhase); {
		cal := calibration{kernel: kernels[0]}
		step := func() { cal.slice(); cal.slice() }
		step()
		before, t := cal.waited, time.Now()
		runner, items = w.setUp(step)
		raw := (time.Since(t) - (cal.waited - before)).Seconds()
		if cal.err != nil {
			return result{}, cal.err
		}
		wallFactor, _ := cal.factors()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw/wallFactor)
	}
	setupPeak := peakRSSMiB()
	order := runOrder(len(items), seed)

	warm, err := runPass(runner, items, order, w.clients, kernels)
	if err != nil {
		return result{}, err
	}
	chk := &checker{items: items}
	if updateGolden {
		chk.want = outcomeLines(items, warm.outcomes)
		if err := writeGolden(w.list, chk.want); err != nil {
			return result{}, err
		}
	} else {
		want, err := loadGolden(w.list)
		if err != nil {
			return result{}, err
		}
		chk.want = want
	}
	chk.check(warm)

	count := int(math.Ceil(float64(seconds) / warm.wall))
	if count < minPasses {
		count = minPasses
	}
	passes, peaks := make([]pass, count), make([]float64, count)
	for i := range passes {
		resetPeakRSS()
		if passes[i], err = runPass(runner, items, order, w.clients, kernels); err != nil {
			return result{}, err
		}
		peaks[i] = peakRSSMiB()
		chk.check(passes[i])
	}

	n := float64(len(items))
	var rawWalls, wallFactors, cpuFactors, throughputs, cpus, medians, allocs, kbs []float64
	perSpec := make([][]float64, len(items))
	var mallocs, bytes float64
	for _, p := range passes {
		rawWalls = append(rawWalls, p.wall)
		wallFactors = append(wallFactors, p.wallFactor)
		cpuFactors = append(cpuFactors, p.cpuFactor)
		throughputs = append(throughputs, n/(p.wall/p.wallFactor))
		cpus = append(cpus, 1e3*p.cpu/p.cpuFactor/n)
		medians = append(medians, median(p.expMillis)/p.cpuFactor)
		allocs = append(allocs, p.mallocs/n)
		kbs = append(kbs, p.bytes/1024/n)
		mallocs += p.mallocs
		bytes += p.bytes
		for s, ms := range p.expMillis {
			perSpec[s] = append(perSpec[s], ms/p.cpuFactor)
		}
	}
	// exp_ms_p50: per spec the median over passes, then the median over
	// specs, so one slow pass or one slow spec moves nothing.
	specMedians := make([]float64, len(items))
	for s := range perSpec {
		specMedians[s] = median(perSpec[s])
	}
	experiments := n * float64(count)

	values := map[string]float64{
		"setup_s":          median(setups),
		"exps_per_s":       median(throughputs),
		"exp_ms_p50":       median(specMedians),
		"cpu_ms_per_exp":   median(cpus),
		"allocs_per_exp":   mallocs / experiments,
		"alloc_kb_per_exp": bytes / 1024 / experiments,
		// One pass that met the collector at a bad moment must not set the
		// figure, so the passes' peaks enter by their median; the set-ups'
		// peak counts if it is the higher one.
		"peak_rss_mb": math.Max(setupPeak, median(peaks)),
	}
	spreads := map[string]summary{
		"setup_s":          summarize(setups),
		"exps_per_s":       summarize(throughputs),
		"exp_ms_p50":       summarize(medians),
		"cpu_ms_per_exp":   summarize(cpus),
		"allocs_per_exp":   summarize(allocs),
		"alloc_kb_per_exp": summarize(kbs),
		"peak_rss_mb":      summarize(peaks),
	}

	fmt.Fprintf(out, "workload %s: %d specs, %d closed-loop client(s), seed %d, %d set-ups, 1 warm-up + %d passes\n",
		w.name, len(items), w.clients, seed, len(setups), count)
	env.report(out)
	fmt.Fprintf(out, "  uncalibrated: pass %.3f s, %.1f exps/s, set-up %.3f s; kernel at %.3fx its reference by wall time %s, %.3fx by CPU time %s\n",
		median(rawWalls), n/median(rawWalls), median(rawSetups),
		median(wallFactors), summarize(wallFactors), median(cpuFactors), summarize(cpuFactors))
	for i, p := range passes {
		fmt.Fprintf(out, "    pass %2d: %.4f s wall, %.4f s CPU, kernel at %.3fx by wall time, %.3fx by CPU time, peak %.1f MiB\n",
			i+1, p.wall, p.cpu, p.wallFactor, p.cpuFactor, peaks[i])
	}
	res = chk.result(map[string]metric{})
	for _, def := range endToEnd {
		res.Metrics[def.name] = metric{Value: values[def.name], Unit: def.unit}
		line := fmt.Sprintf("  %-18s %12.4f %-6s", def.name, values[def.name], def.unit)
		if s, ok := spreads[def.name]; ok {
			line += "  " + s.String()
		}
		fmt.Fprintln(out, line)
	}
	chk.report(out)
	return res, nil
}
