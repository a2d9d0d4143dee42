package main

import (
	"fmt"
	"math"
	"os"
)

// selfcheck answers the question the benchmark has to answer about itself
// before it may judge a change: do two sets of runs of the same code agree
// within the declared bounds? Each set runs every workload o.runs times, run
// i under seed o.seed+i, workloads interleaved so that machine drift falls
// on all of them; every run's report goes to standard error. Per workload
// and end-to-end metric it prints both medians, their relative difference,
// the bound, and each set's spread (interquartile distance over median, as
// the PR driver computes it). A difference beyond the bound is a violation;
// so is a spread beyond it. setup_s is exempt from the spread rule, as in
// the driver's contract.
func selfcheck(o options) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for s := range sets {
		for i := 0; i < o.runs; i++ {
			for _, w := range workloads {
				child := o
				child.workload, child.seed, child.trace = w.name, o.seed+int64(i), 0
				fmt.Fprintf(os.Stderr, "selfcheck: set %d run %d/%d %s\n", s+1, i+1, o.runs, w.name)
				res, err := runChild(child, os.Stderr)
				if err != nil {
					return fmt.Errorf("set %d, workload %s, seed %d: %w", s+1, w.name, child.seed, err)
				}
				for name, m := range res.Metrics {
					k := key{w.name, name}
					sets[s][k] = append(sets[s][k], m.Value)
				}
			}
		}
	}

	fmt.Printf("selfcheck: 2 sets x %d runs per workload, seeds %d..%d, -seconds %d\n", o.runs, o.seed, o.seed+int64(o.runs)-1, o.seconds)
	fmt.Printf("%-16s %-17s %12s %12s %8s %7s %9s %9s\n", "workload", "metric", "median A", "median B", "diff", "bound", "spread A", "spread B")
	violations := 0
	for _, w := range workloads {
		for _, def := range endToEnd {
			a, b := summarize(sets[0][key{w.name, def.name}]), summarize(sets[1][key{w.name, def.name}])
			diff := (b.Median - a.Median) / a.Median
			verdict := ""
			if math.Abs(diff) > def.bound {
				verdict = "  VIOLATION: sets differ by more than the bound"
			} else if def.name != "setup_s" && math.Max(a.spread(), b.spread()) > def.bound {
				verdict = "  VIOLATION: spread wider than the bound"
			}
			if verdict != "" {
				violations++
			}
			fmt.Printf("%-16s %-17s %12.4f %12.4f %+7.2f%% %6.1f%% %8.2f%% %8.2f%%%s\n",
				w.name, def.name, a.Median, b.Median, 100*diff, 100*def.bound, 100*a.spread(), 100*b.spread(), verdict)
		}
	}
	if violations > 0 {
		return fmt.Errorf("selfcheck: %d violation(s)", violations)
	}
	return nil
}
