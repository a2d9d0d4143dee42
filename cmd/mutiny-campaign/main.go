// Command mutiny-campaign runs the paper's fault/error injection campaign
// (§IV-C) against the simulated cluster and prints Tables III, IV, V and VI
// plus Figures 6 and 7, the critical-field analysis, and the headline
// findings.
//
// Usage:
//
//	mutiny-campaign [flags]
//
// The full campaign (stride 1, 100 golden runs) reproduces the paper-scale
// ~9,000-experiment study; larger strides subsample it evenly for quick
// looks.
//
// Experiments fan out across -parallel worker goroutines (default: all
// cores). Campaign outputs are bit-identical for every -parallel value, so
// the knob only trades wall-clock for CPU.
//
// -shards splits the campaign across OS processes: the driver spawns N
// copies of itself (one per shard), each running the experiments whose
// generated index ≡ shard-index (mod N), then merges their JSON outputs in
// index order and runs the refinement round. The merged output is
// bit-identical to a single-process run — campaign generation is
// deterministic, so every process regenerates the same spec matrix and only
// results cross the process boundary. -shard-index runs a single shard
// directly (emitting JSON on stdout), which is how one campaign spreads
// across machines: run shard i on machine i, ship the JSON back, merge.
//
// -share-bootstrap forks every experiment from a settled per-workload
// bootstrap snapshot instead of replaying the ~20 s simulated bootstrap each
// time. Snapshots live in a process-wide cache keyed on the cluster
// configuration plus the workload kind, so repeated campaigns (and every
// Runner constructed in the process) bootstrap each workload exactly once.
// A snapshot is immutable, so every campaign worker forks from the same one.
//
// -admission-hooks installs a governance webhook chain (mutating defaulter,
// image policy, limits policy) in every experiment cluster and adds the
// admission fault axes — webhook backend down, webhook latency past timeout,
// wrong selector, missing failure policy — each run under both failure-policy
// regimes ("Fail" = fail-closed, "Ignore" = fail-open). The admission table
// then renders the headline trade-off per axis and policy: the write-
// availability outage window against the count of policy-violating objects
// admitted. -failure-policy sets the configured (pre-override) policy of the
// hooks. With -admission-hooks and no explicit -workloads the campaign runs
// the policy workload, whose canary creates make integrity loss measurable.
//
// Readiness tracking inside each experiment is watch-driven: the kbench
// driver, the application client, the controllers, and the scheduler consume
// informer-style views fed by the API server's watch fan-out (with a
// low-frequency resync re-list as the safety net) rather than polling
// re-lists, and the driver resumes on the exact event that completes an
// operation. The watch stream is itself an injectable channel
// (mutiny.ChannelWatch) alongside the apiserver→store and
// component→apiserver channels the paper's campaign targets.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"time"

	mutiny "github.com/mutiny-sim/mutiny"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mutiny-campaign:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mutiny-campaign", flag.ContinueOnError)
	var (
		stride     = fs.Int("stride", 1, "run every n-th generated field/drop/serialization experiment (1 = full campaign); the timed-fault matrices always run in full")
		golden     = fs.Int("golden", 100, "golden runs per workload")
		parallel   = fs.Int("parallel", 0, "experiment worker goroutines (0 = all cores, 1 = sequential; output is bit-identical either way)")
		shards     = fs.Int("shards", 1, "split the campaign across this many OS processes (driver mode: spawns one child per shard, merges their outputs bit-identically to a single-process run)")
		shardIndex = fs.Int("shard-index", -1, "run only shard shard-index of -shards and emit its JSON ShardOutput on stdout (child/remote mode; -1 = not a shard)")
		share      = fs.Bool("share-bootstrap", false, "fork each experiment from a settled bootstrap snapshot instead of replaying bootstrap (snapshots are cached process-wide per cluster-config+workload; preserves classification aggregates, not bit-level observations)")
		replicas   = fs.Int("control-plane-replicas", 1, "apiserver/store replicas per experiment cluster; >= 2 adds the HA fault axes (apiserver crash, master partition, store loss) and the failover/stale-read table")
		hooks      = fs.Int("admission-hooks", 0, "admission webhooks per experiment cluster (0-3: defaulter, image-policy, limits-policy); >= 1 adds the webhook fault axes (down, latency, wrong selector, missing policy) under both failure policies and the admission table, and defaults -workloads to the policy workload")
		policy     = fs.String("failure-policy", "", "configured failure policy of the admission hooks: Fail (fail-closed) or Ignore (fail-open; the default when empty) — the generated admission axes override it per experiment")
		nodes      = fs.Int("nodes", 0, "worker nodes per experiment cluster (0 = the cluster default); large clusters pair naturally with -share-bootstrap")
		zones      = fs.Int("zones", 0, "cloud-edge zones per experiment cluster (0/1 = flat network); >= 2 splits the workers over a cloud core, regional, and edge zones with per-link latency/loss/bandwidth classes, adds the topology fault axes (edge-link flap, zone partition, mass node-kill) per non-core zone, and renders the topology table")
		edgeNodes  = fs.Int("edge-nodes", 0, "worker nodes in the edge zone (0 with -zones >= 2 = an even split)")
		noRefine   = fs.Bool("no-refinement", false, "skip the critical-field refinement round")
		noProp     = fs.Bool("no-propagation", false, "skip the component-channel propagation experiments")
		quiet      = fs.Bool("quiet", false, "suppress progress output")
		workloads  = fs.String("workloads", "", "comma-separated workload subset (deploy,scale,failover,policy)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		// Flag parsing stops at the first positional argument: everything after
		// a stray word (a flag missing its dash) would be silently ignored.
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", *shards)
	}
	if *stride < 1 {
		// The engine reads a stride below 1 as 1: the full campaign, hours at
		// the default -golden, for what was most likely a typo.
		return fmt.Errorf("-stride must be >= 1, got %d", *stride)
	}
	if *shardIndex >= *shards {
		return fmt.Errorf("-shard-index %d out of range for -shards %d", *shardIndex, *shards)
	}
	if *policy != "" && *policy != "Fail" && *policy != "Ignore" {
		return fmt.Errorf("-failure-policy must be Fail or Ignore, got %q", *policy)
	}
	// Counts: 0 means "the default"; a negative one means nothing and must
	// not reach the simulator.
	for _, f := range []struct {
		name string
		val  int
	}{
		{"golden", *golden}, {"control-plane-replicas", *replicas}, {"admission-hooks", *hooks},
		{"nodes", *nodes}, {"zones", *zones}, {"edge-nodes", *edgeNodes}, {"parallel", *parallel},
	} {
		if f.val < 0 {
			return fmt.Errorf("-%s must be >= 0, got %d", f.name, f.val)
		}
	}
	if *hooks > 3 {
		return fmt.Errorf("-admission-hooks must be 0-3, got %d", *hooks)
	}

	cfg := mutiny.CampaignConfig{
		GoldenRuns:           *golden,
		SampleStride:         *stride,
		Parallelism:          *parallel,
		Shards:               *shards,
		ShareBootstrap:       *share,
		ControlPlaneReplicas: *replicas,
		AdmissionHooks:       *hooks,
		FailurePolicy:        *policy,
		Workers:              *nodes,
		Zones:                *zones,
		EdgeNodes:            *edgeNodes,
		SkipRefinement:       *noRefine,
		SkipPropagation:      *noProp,
	}
	if *workloads != "" {
		for _, name := range splitComma(*workloads) {
			wl, err := mutiny.ParseWorkload(name)
			if err != nil {
				return fmt.Errorf("-workloads: %w", err)
			}
			cfg.Workloads = append(cfg.Workloads, wl)
		}
	}
	start := time.Now()
	if !*quiet {
		cfg.Progress = func(done, total int) {
			if done%50 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\rexperiments: %d/%d (%.0fs elapsed)", done, total, time.Since(start).Seconds())
			}
		}
	}

	// Child/remote mode: run one shard, emit JSON, done.
	if *shardIndex >= 0 {
		cfg.ShardIndex = *shardIndex
		out := mutiny.RunCampaignShard(cfg)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "\nshard %d/%d finished in %s\n", *shardIndex, *shards, time.Since(start).Round(time.Second))
		}
		return json.NewEncoder(os.Stdout).Encode(out)
	}

	var out *mutiny.CampaignOutput
	if *shards > 1 {
		shardOuts, err := spawnShards(args, *shards, *quiet)
		if err != nil {
			return err
		}
		out = mutiny.MergeCampaignShards(cfg, shardOuts)
	} else {
		out = mutiny.RunCampaign(cfg)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "\ncampaign finished in %s\n\n", time.Since(start).Round(time.Second))
	}

	fmt.Printf("Campaign: %d injection experiments (+%d refinement, +%d propagation cells); recorded fields: %v\n\n",
		out.Main.Total(), out.Refinement.Total(), len(out.Propagation), out.FieldsRecorded)
	mutiny.RenderTable3(os.Stdout, out.Main)
	fmt.Println()
	mutiny.RenderTable4(os.Stdout, out.Main)
	fmt.Println()
	mutiny.RenderTable5(os.Stdout, out.Main)
	fmt.Println()
	mutiny.RenderTable6(os.Stdout, out.Propagation)
	fmt.Println()
	if *replicas > 1 {
		mutiny.RenderHATable(os.Stdout, out.Main)
		fmt.Println()
	}
	if *hooks > 0 {
		mutiny.RenderAdmissionTable(os.Stdout, out.Main)
		fmt.Println()
	}
	if *zones > 1 {
		mutiny.RenderTopologyTable(os.Stdout, out.Main)
		fmt.Println()
	}
	mutiny.RenderFigure6(os.Stdout, out.Main)
	fmt.Println()
	mutiny.RenderFigure7(os.Stdout, out.Main)
	fmt.Println()
	mutiny.RenderCriticalFields(os.Stdout, out.Main)
	fmt.Println()
	mutiny.RenderFindings(os.Stdout, out.Main)
	return nil
}

// spawnShards runs one child process per shard (this binary, same flags,
// plus -shard-index), collects their JSON outputs, and returns them in
// shard order. Children run concurrently — the merge is index-ordered, so
// completion order is irrelevant to the result.
//
// Failure propagation is all-or-nothing: a non-zero child exit (with its
// stderr attached), empty or undecodable child output, or output claiming a
// different shard identity each fail the whole driver run, and every shard's
// failure is reported — partial shard sets are never merged, since a merge
// with a hole panics deep in the campaign package with far less context.
func spawnShards(args []string, shards int, quiet bool) ([]*mutiny.ShardOutput, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary for shard spawn: %w", err)
	}
	outs := make([]*mutiny.ShardOutput, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			childArgs := append(append([]string{}, args...), fmt.Sprintf("-shard-index=%d", i))
			if !quiet {
				// Child progress lines would interleave; keep children quiet
				// and report shard completion from the driver instead.
				childArgs = append(childArgs, "-quiet")
			}
			cmd := exec.Command(self, childArgs...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				errs[i] = fmt.Errorf("shard %d: child failed: %w\nchild stderr:\n%s", i, err, indent(stderr.Bytes()))
				return
			}
			if len(bytes.TrimSpace(stdout.Bytes())) == 0 {
				errs[i] = fmt.Errorf("shard %d: child exited 0 but produced no output\nchild stderr:\n%s", i, indent(stderr.Bytes()))
				return
			}
			so := new(mutiny.ShardOutput)
			if err := json.Unmarshal(stdout.Bytes(), so); err != nil {
				errs[i] = fmt.Errorf("shard %d: decoding child output: %w\nchild stderr:\n%s", i, err, indent(stderr.Bytes()))
				return
			}
			if so.Shards != shards || so.ShardIndex != i {
				errs[i] = fmt.Errorf("shard %d: child output identifies as shard %d/%d — flag mismatch between driver and child",
					i, so.ShardIndex, so.Shards)
				return
			}
			outs[i] = so
			if !quiet {
				fmt.Fprintf(os.Stderr, "shard %d/%d done (%d main, %d propagation results)\n",
					i, shards, len(so.Main), len(so.Prop))
			}
		}(i)
	}
	wg.Wait()
	var failed []error
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	if len(failed) > 0 {
		return nil, errors.Join(failed...)
	}
	return outs, nil
}

// indent prefixes child stderr with two spaces per line so it reads as a
// quoted block inside the driver's error message.
func indent(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if len(b) == 0 {
		return []byte("  (empty)")
	}
	return append([]byte("  "), bytes.ReplaceAll(b, []byte("\n"), []byte("\n  "))...)
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
