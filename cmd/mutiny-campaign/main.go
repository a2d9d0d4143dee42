// Command mutiny-campaign runs the paper's fault/error injection campaign
// (§IV-C) against the simulated cluster and prints Tables III, IV, V and VI
// plus Figures 6 and 7, the critical-field analysis, and the headline
// findings.
//
// Usage:
//
//	mutiny-campaign [flags]
//
// The full campaign (stride 1, 100 golden runs per workload) is the
// paper-scale study: 6,429 injection experiments, 207 refinement runs and
// 849 propagation experiments, about half a minute on two cores. Larger
// strides subsample it evenly for quick looks.
//
// Experiments fan out across -parallel worker goroutines (default: all
// cores). Campaign outputs are bit-identical for every -parallel value, so
// the knob only trades wall-clock for CPU.
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
	"flag"
	"fmt"
	"os"
	"strings"
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
		stride    = fs.Int("stride", 1, "run every n-th generated field/drop/serialization experiment (1 = full campaign); the timed-fault matrices always run in full")
		golden    = fs.Int("golden", 100, "golden runs per workload")
		parallel  = fs.Int("parallel", 0, "experiment worker goroutines (0 = all cores, 1 = sequential; output is bit-identical either way)")
		share     = fs.Bool("share-bootstrap", false, "fork each experiment from a settled bootstrap snapshot instead of replaying bootstrap (snapshots are cached process-wide per cluster-config+workload; preserves classification aggregates, not bit-level observations)")
		replicas  = fs.Int("control-plane-replicas", 1, "apiserver/store replicas per experiment cluster; >= 2 adds the HA fault axes (apiserver crash, master partition, store loss) and the failover/stale-read table")
		hooks     = fs.Int("admission-hooks", 0, "admission webhooks per experiment cluster (0-3: defaulter, image-policy, limits-policy); >= 1 adds the webhook fault axes (down, latency, wrong selector, missing policy) under both failure policies and the admission table, and defaults -workloads to the policy workload")
		policy    = fs.String("failure-policy", "", "configured failure policy of the admission hooks: Fail (fail-closed) or Ignore (fail-open; the default when empty) — the generated admission axes override it per experiment")
		nodes     = fs.Int("nodes", 0, "worker nodes per experiment cluster (0 = the cluster default); large clusters pair naturally with -share-bootstrap")
		zones     = fs.Int("zones", 0, "cloud-edge zones per experiment cluster (0/1 = flat network); >= 2 splits the workers over a cloud core, regional, and edge zones with per-link latency/loss/bandwidth classes, adds the topology fault axes (edge-link flap, zone partition, mass node-kill) per non-core zone, and renders the topology table")
		edgeNodes = fs.Int("edge-nodes", 0, "worker nodes in the edge zone (0 with -zones >= 2 = an even split)")
		noRefine  = fs.Bool("no-refinement", false, "skip the critical-field refinement round")
		noProp    = fs.Bool("no-propagation", false, "skip the component-channel propagation experiments")
		quiet     = fs.Bool("quiet", false, "suppress progress output")
		workloads = fs.String("workloads", "", "comma-separated workload subset (deploy,scale,failover,policy)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		// Flag parsing stops at the first positional argument: everything after
		// a stray word (a flag missing its dash) would be silently ignored.
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *stride < 1 {
		// The engine reads a stride below 1 as 1: the full campaign, for what
		// was most likely a typo.
		return fmt.Errorf("-stride must be >= 1, got %d", *stride)
	}
	if *golden < 1 {
		// Likewise the engine reads 0 golden runs as its default of 100.
		return fmt.Errorf("-golden must be >= 1, got %d", *golden)
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
		{"control-plane-replicas", *replicas}, {"admission-hooks", *hooks},
		{"nodes", *nodes}, {"zones", *zones}, {"edge-nodes", *edgeNodes}, {"parallel", *parallel},
	} {
		if f.val < 0 {
			return fmt.Errorf("-%s must be >= 0, got %d", f.name, f.val)
		}
	}
	if *hooks > 3 {
		return fmt.Errorf("-admission-hooks must be 0-3, got %d", *hooks)
	}
	if *edgeNodes > 0 && *zones < 2 {
		return fmt.Errorf("-edge-nodes needs -zones >= 2, got -zones %d", *zones)
	}
	cluster := mutiny.ClusterConfig{
		ControlPlaneReplicas: *replicas, AdmissionHooks: *hooks, FailurePolicy: *policy,
		Workers: *nodes, Zones: *zones, EdgeNodes: *edgeNodes,
	}
	if *zones >= 2 {
		// The cluster places the workers; a zone it would leave empty has no
		// node for its fault axes to act on.
		perZone := cluster.WorkersPerZone()
		if edge := perZone[*zones-1]; edge < *edgeNodes {
			return fmt.Errorf("-edge-nodes %d exceeds the %d workers outside the monitoring node", *edgeNodes, edge)
		}
		var empty []int
		for zone, n := range perZone {
			if n == 0 {
				empty = append(empty, zone)
			}
		}
		if len(empty) > 0 {
			return fmt.Errorf("-zones %d leaves zones %v without a worker node (zone 0 is the core, zone %d the edge); raise -nodes or lower -zones", *zones, empty, *zones-1)
		}
	}

	cfg := mutiny.CampaignConfig{
		GoldenRuns:      *golden,
		SampleStride:    *stride,
		Parallelism:     *parallel,
		ShareBootstrap:  *share,
		Cluster:         cluster,
		SkipRefinement:  *noRefine,
		SkipPropagation: *noProp,
	}
	if *workloads != "" {
		// Empty names between commas are skipped, as in "deploy,,scale".
		for _, name := range strings.FieldsFunc(*workloads, func(r rune) bool { return r == ',' }) {
			wl, err := mutiny.ParseWorkload(name)
			if err != nil {
				return fmt.Errorf("-workloads: %w", err)
			}
			cfg.Workloads = append(cfg.Workloads, wl)
		}
		if len(cfg.Workloads) == 0 {
			return fmt.Errorf("-workloads %q names no workload", *workloads)
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

	out := mutiny.RunCampaign(cfg)
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
