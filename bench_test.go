// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§V), plus the §V-C1 ablations. Each benchmark regenerates the
// corresponding artifact and prints it to stdout, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's result set end to end.
//
// Scale: by default the campaign-backed benches subsample the generated
// campaign with stride MUTINY_STRIDE (default 12, ≈550 injection
// experiments) and 30 golden runs, keeping the default run minutes-long.
// Set MUTINY_STRIDE=1 MUTINY_GOLDEN=100 for the full paper-scale study
// (~6,500 experiments; the paper performed 8,782 on their field inventory).
//
// Parallelism: experiments fan out across MUTINY_PARALLEL worker goroutines
// (unset or 0 = all cores, 1 = the sequential path). Campaign outputs are
// bit-identical for every MUTINY_PARALLEL value — experiments are isolated
// simulations merged in generated order — so the knob only changes
// wall-clock time. BenchmarkCampaignParallel measures the speedup.
//
// Contention: MUTINY_MUTEXPROF=1 enables mutex and block profiling for the
// whole run and writes mutex.pprof/block.pprof artifacts (to
// MUTINY_PROF_DIR, default "."), so lock contention on the parallel
// campaign path can be inspected with `go tool pprof` after any bench run.
package mutiny

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/campaign"
	"github.com/mutiny-sim/mutiny/internal/classify"
	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/report"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

var (
	_campaignOnce sync.Once
	_campaignOut  *campaign.Output
)

// TestMain exists to support MUTINY_MUTEXPROF=1: with it set, mutex and
// block profiling cover the entire run (including the parallel campaign
// fan-out) and the profiles are written as pprof artifacts after the tests
// and benchmarks finish. Without it, TestMain is a plain m.Run().
func TestMain(m *testing.M) {
	prof := os.Getenv("MUTINY_MUTEXPROF") == "1"
	if prof {
		runtime.SetMutexProfileFraction(5)
		runtime.SetBlockProfileRate(100) // sample blocking events >= 100ns
	}
	code := m.Run()
	if prof {
		dir := os.Getenv("MUTINY_PROF_DIR")
		if dir == "" {
			dir = "."
		}
		for _, p := range []string{"mutex", "block"} {
			path := dir + "/" + p + ".pprof"
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mutexprof: create %s: %v\n", path, err)
				continue
			}
			if err := pprof.Lookup(p).WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "mutexprof: write %s: %v\n", path, err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "mutexprof: wrote %s\n", path)
		}
	}
	os.Exit(code)
}

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// sharedCampaign runs the injection campaign once per `go test` process; the
// per-table benchmarks render different views of it, like the paper's tables
// all describe the same 8,782-experiment campaign.
func sharedCampaign(b *testing.B) *campaign.Output {
	b.Helper()
	_campaignOnce.Do(func() {
		cfg := campaign.Config{
			GoldenRuns:     envInt("MUTINY_GOLDEN", 30),
			SampleStride:   envInt("MUTINY_STRIDE", 12),
			Parallelism:    envInt("MUTINY_PARALLEL", 0),
			ShareBootstrap: envInt("MUTINY_SHARE", 0) > 0,
		}
		fmt.Printf("[campaign] stride=%d golden=%d parallel=%d share-bootstrap=%v (set MUTINY_STRIDE=1 MUTINY_GOLDEN=100 for paper scale; MUTINY_PARALLEL=1 for the sequential path; MUTINY_SHARE=1 to fork bootstrap snapshots)\n",
			cfg.SampleStride, cfg.GoldenRuns, cfg.Parallelism, cfg.ShareBootstrap)
		_campaignOut = campaign.RunCampaign(cfg)
		fmt.Printf("[campaign] %d injection experiments, %d refinement, %d propagation cells\n",
			_campaignOut.Main.Total(), _campaignOut.Refinement.Total(), len(_campaignOut.Propagation))
	})
	return _campaignOut
}

// BenchmarkTable1FFDAChain regenerates Table I: the fault→error→failure
// chain of the 81 real-world incidents.
func BenchmarkTable1FFDAChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.Table1(os.Stdout)
	}
}

// BenchmarkTable3OFtoCF regenerates Table III: the propagation matrix from
// orchestrator-level to client-level failures per workload.
func BenchmarkTable3OFtoCF(b *testing.B) {
	out := sharedCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Table3(os.Stdout, out.Main)
	}
}

// BenchmarkTable4OrchestratorFailures regenerates Table IV: OF statistics by
// workload and injection type.
func BenchmarkTable4OrchestratorFailures(b *testing.B) {
	out := sharedCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Table4(os.Stdout, out.Main)
	}
}

// BenchmarkTable5ClientFailures regenerates Table V: CF statistics by
// workload and injection type.
func BenchmarkTable5ClientFailures(b *testing.B) {
	out := sharedCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Table5(os.Stdout, out.Main)
	}
}

// BenchmarkTable6Propagation regenerates Table VI: the validation-layer
// propagation experiments on the component→apiserver channel.
func BenchmarkTable6Propagation(b *testing.B) {
	out := sharedCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Table6(os.Stdout, out.Propagation)
	}
}

// BenchmarkTable7Coverage regenerates Table VII: real-world vs
// Mutiny-replicable subcategories.
func BenchmarkTable7Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.Table7(os.Stdout)
	}
}

// BenchmarkFigure5TimeSeries regenerates Figure 5: a golden client latency
// series next to an injected one (a replica-count corruption that
// under-provisions the target service), with their z-scores.
func BenchmarkFigure5TimeSeries(b *testing.B) {
	runner := campaign.NewRunner()
	runner.GoldenRuns = envInt("MUTINY_GOLDEN", 30)
	baseline := runner.Baseline(workload.ScaleUp)
	goldenRes, goldenObs := runner.RunObserved(campaign.Spec{Workload: workload.ScaleUp, Seed: 4242})
	injRes, injObs := runner.RunObserved(campaign.Spec{
		Workload: workload.ScaleUp,
		Seed:     4243,
		Injection: &inject.Injection{
			Channel: inject.ChannelStore, Kind: spec.KindDeployment,
			FieldPath: "spec.replicas", Type: inject.SetValue, Value: int64(0),
			Occurrence: 2,
		},
	})
	_ = baseline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Figure5(os.Stdout, goldenObs.Series, injObs.Series, goldenRes.Z, injRes.Z)
	}
	if injRes.Z <= goldenRes.Z {
		b.Fatalf("injected z (%.1f) not above golden z (%.1f)", injRes.Z, goldenRes.Z)
	}
}

// BenchmarkFigure6ZScores regenerates Figure 6: client z-score distributions
// per OF category and workload.
func BenchmarkFigure6ZScores(b *testing.B) {
	out := sharedCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Figure6(os.Stdout, out.Main)
	}
}

// BenchmarkFigure7UserErrors regenerates Figure 7: experiments in which the
// cluster user received an error vs totals, by OF category (finding F4).
func BenchmarkFigure7UserErrors(b *testing.B) {
	out := sharedCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Figure7(os.Stdout, out.Main)
		report.Findings(os.Stdout, out.Main)
	}
}

// BenchmarkCriticalFields regenerates the §V-C2 critical-field analysis
// (finding F2: dependency-tracking fields dominate critical failures).
func BenchmarkCriticalFields(b *testing.B) {
	out := sharedCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.CriticalFields(os.Stdout, out.Main)
	}
}

// BenchmarkAblationReplicatedCP reproduces the §V-C1 ablation: repeating
// critical-field injections against a three-node (raft-replicated) control
// plane shows no significant difference, because values are injected before
// the consensus algorithm runs.
func BenchmarkAblationReplicatedCP(b *testing.B) {
	criticalInjections := []inject.Injection{
		{Channel: inject.ChannelStore, Kind: spec.KindReplicaSet,
			FieldPath: "spec.template.labels[app]", Type: inject.SetValue, Value: "mislabeled", Occurrence: 2},
		{Channel: inject.ChannelStore, Kind: spec.KindDeployment,
			FieldPath: "spec.replicas", Type: inject.BitFlip, Bit: 4, Occurrence: 1},
		{Channel: inject.ChannelStore, Kind: spec.KindPod,
			FieldPath: "metadata.labels[app]", Type: inject.SetValue, Value: "", Occurrence: 2},
		{Channel: inject.ChannelStore, Kind: spec.KindService,
			FieldPath: "spec.ports[0].targetPort", Type: inject.BitFlip, Bit: 4, Occurrence: 1},
		{Channel: inject.ChannelStore, Kind: spec.KindDeployment,
			Type: inject.DropMessage, Occurrence: 1},
	}
	run := func(replicas int) map[classify.OF]int {
		runner := campaign.NewRunner()
		runner.GoldenRuns = 20
		runner.ClusterConfig = cluster.Config{ControlPlaneReplicas: replicas}
		counts := make(map[classify.OF]int)
		for i, in := range criticalInjections {
			in := in
			res := runner.Run(campaign.Spec{Workload: workload.Deploy, Seed: int64(7000 + i), Injection: &in})
			counts[res.OF]++
		}
		return counts
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		single := run(1)
		triple := run(3)
		fmt.Printf("Ablation §V-C1 — replicated control plane (critical-field injections)\n")
		fmt.Printf("  1 control-plane node: %v\n", single)
		fmt.Printf("  3 control-plane nodes: %v\n", triple)
		same := true
		for of, n := range single {
			if triple[of] != n {
				same = false
			}
		}
		fmt.Printf("  identical outcome distribution: %v (paper: 'no significant difference')\n", same)
	}
}

// BenchmarkAblationAtRestCorruption reproduces the §V-C1 observation that
// corrupting data at rest propagates differently from in-flight corruption:
// the apiserver's watch cache masks it until a refresh (restart), and an
// intervening update overwrites it.
func BenchmarkAblationAtRestCorruption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cl := cluster.New(cluster.Config{Seed: 51})
		cl.Start()
		cl.AwaitSettled(30_000_000_000)
		admin := cl.Client("ablation")
		driver := workload.NewDriver(cl, workload.ScaleUp)
		driver.Setup()

		key := spec.Key(spec.KindDeployment, spec.DefaultNamespace, workload.AppName(0))
		st := cl.Backend.Replica(0)
		corrupt := func() bool {
			return st.CorruptAtRest(key, func(data []byte) []byte {
				obj := spec.New(spec.KindDeployment)
				if err := decode(data, obj); err != nil {
					return data
				}
				obj.(*spec.Deployment).Spec.Replicas = 0
				out, err := encode(obj)
				if err != nil {
					return data
				}
				return out
			})
		}

		// Phase 1: corrupt at rest, then let a client update flow — the
		// cached (correct) object wins and overwrites the corruption.
		corrupt()
		obj, _ := admin.Get(spec.KindDeployment, spec.DefaultNamespace, workload.AppName(0))
		maskedByCache := obj.(*spec.Deployment).Spec.Replicas == 2
		d := spec.CloneForWriteAs(obj.(*spec.Deployment))
		d.Metadata.Annotations = map[string]string{"touch": "1"}
		_ = admin.Update(d)
		cl.Loop.RunUntil(cl.Loop.Now() + 2_000_000_000)
		kv, _ := st.Get(key)
		repaired := spec.New(spec.KindDeployment)
		_ = decode(kv.Value, repaired)
		overwritten := repaired.(*spec.Deployment).Spec.Replicas == 2

		// Phase 2: corrupt at rest again and restart the apiserver — now
		// the corruption is picked up and acted on.
		corrupt()
		cl.Server.Restart()
		cl.Loop.RunUntil(cl.Loop.Now() + 10_000_000_000)
		obj, _ = admin.Get(spec.KindDeployment, spec.DefaultNamespace, workload.AppName(0))
		visibleAfterRestart := obj.(*spec.Deployment).Spec.Replicas == 0

		fmt.Printf("Ablation §V-C1 — corruption at rest vs in-flight\n")
		fmt.Printf("  masked by watch cache before restart: %v\n", maskedByCache)
		fmt.Printf("  overwritten by a cache-based update:  %v\n", overwritten)
		fmt.Printf("  visible after apiserver restart:      %v\n", visibleAfterRestart)
		if !maskedByCache || !overwritten || !visibleAfterRestart {
			b.Fatal("at-rest corruption semantics diverge from §V-C1")
		}
		cl.Stop()
	}
}

// BenchmarkCampaignParallel measures campaign wall-clock versus worker
// count: the same miniature campaign on the sequential path and fanned out
// across all cores. The speedup ratio is the number that matters — outputs
// are bit-identical (see TestCampaignParallelismIsDeterministic), so the
// parallel engine is pure wall-clock win.
func BenchmarkCampaignParallel(b *testing.B) {
	base := campaign.Config{
		GoldenRuns:     envInt("MUTINY_GOLDEN", 10),
		SampleStride:   envInt("MUTINY_STRIDE", 48),
		ShareBootstrap: envInt("MUTINY_SHARE", 0) > 0,
	}
	// A fixed workers=4 case pins one cross-machine-comparable point on the
	// scaling curve next to the all-cores case; it is skipped on boxes with
	// fewer than four CPUs and dropped when all-cores IS four workers (the
	// two runs would duplicate a sub-benchmark name).
	cases := []int{1}
	if runtime.NumCPU() >= 4 && runtime.GOMAXPROCS(0) != 4 {
		cases = append(cases, 4)
	}
	cases = append(cases, 0)
	for _, workers := range cases {
		name := "sequential"
		if workers == 0 {
			name = fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0))
		} else if workers > 1 {
			name = fmt.Sprintf("workers=%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			cfg := base
			cfg.Parallelism = workers
			for i := 0; i < b.N; i++ {
				out := campaign.RunCampaign(cfg)
				if out.Main.Total() == 0 {
					b.Fatal("campaign ran zero experiments")
				}
			}
		})
	}
}

// BenchmarkMitigationFieldGuard evaluates the §VI-B mitigation this library
// adds on top of the paper: journaling critical-field changes, monitoring
// cluster health during a probation window, and rolling back changes that
// degrade it. The same template-label corruption that spawns pods forever is
// run with and without the guard.
func BenchmarkMitigationFieldGuard(b *testing.B) {
	in := inject.Injection{
		Channel: inject.ChannelStore, Kind: spec.KindReplicaSet,
		FieldPath: "spec.template.labels[app]",
		Type:      inject.SetValue, Value: "mislabeled", Occurrence: 2,
	}
	run := func(guarded bool) *campaign.Result {
		runner := campaign.NewRunner()
		runner.GoldenRuns = 20
		runner.ClusterConfig = cluster.Config{EnableFieldGuard: guarded}
		inCopy := in
		return runner.Run(campaign.Spec{Workload: workload.Deploy, Seed: 8100, Injection: &inCopy})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unguarded := run(false)
		guarded := run(true)
		fmt.Printf("Mitigation — critical-field guard (§VI-B log+monitor+rollback)\n")
		fmt.Printf("  without guard: OF=%s CF=%s pods created=%d\n", unguarded.OF, unguarded.CF, unguarded.PodsCreated)
		fmt.Printf("  with guard:    OF=%s CF=%s pods created=%d\n", guarded.OF, guarded.CF, guarded.PodsCreated)
		if guarded.PodsCreated >= unguarded.PodsCreated {
			b.Fatalf("guard did not bound the spawn (%d vs %d)", guarded.PodsCreated, unguarded.PodsCreated)
		}
	}
}

// BenchmarkMitigationChecksums evaluates the §VI-B redundancy-code
// mitigation ("redundancy codes on critical fields can protect the cluster
// from hardware faults with a negligible overhead"): single-bit corruptions
// of critical fields are detected at read-back and the object rebuilt,
// instead of becoming agreed cluster state.
func BenchmarkMitigationChecksums(b *testing.B) {
	injections := []inject.Injection{
		{Channel: inject.ChannelStore, Kind: spec.KindReplicaSet,
			FieldPath: "spec.template.labels[app]", Type: inject.BitFlip, CharIndex: 0, Occurrence: 2},
		{Channel: inject.ChannelStore, Kind: spec.KindPod,
			FieldPath: "metadata.labels[app]", Type: inject.BitFlip, CharIndex: 1, Occurrence: 1},
		{Channel: inject.ChannelStore, Kind: spec.KindService,
			FieldPath: "spec.ports[0].targetPort", Type: inject.BitFlip, Bit: 4, Occurrence: 1},
		{Channel: inject.ChannelStore, Kind: spec.KindPod,
			FieldPath: "spec.nodeName", Type: inject.BitFlip, CharIndex: 0, Occurrence: 2},
	}
	run := func(protected bool) (critical int, detected int) {
		runner := campaign.NewRunner()
		runner.GoldenRuns = 20
		if protected {
			runner.ClusterConfig = cluster.Config{CriticalFieldChecksums: true}
		}
		for i, in := range injections {
			inCopy := in
			res := runner.Run(campaign.Spec{Workload: workload.Deploy, Seed: int64(8200 + i), Injection: &inCopy})
			if res.OF >= classify.OFNet || res.CF == classify.CFSU {
				critical++
			}
			_ = res
		}
		return critical, detected
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		criticalPlain, _ := run(false)
		criticalProtected, _ := run(true)
		fmt.Printf("Mitigation — redundancy codes on critical fields (§VI-B)\n")
		fmt.Printf("  critical/networking failures without checksums: %d/%d injections\n", criticalPlain, len(injections))
		fmt.Printf("  critical/networking failures with checksums:    %d/%d injections\n", criticalProtected, len(injections))
		if criticalProtected > criticalPlain {
			b.Fatalf("checksums made things worse (%d vs %d)", criticalProtected, criticalPlain)
		}
	}
}
