// Package report renders the campaign results and the FFDA dataset into the
// plain-text equivalents of the paper's tables and figures.
package report

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"text/tabwriter"

	"github.com/mutiny-sim/mutiny/internal/campaign"
	"github.com/mutiny-sim/mutiny/internal/classify"
	"github.com/mutiny-sim/mutiny/internal/ffda"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

func pct(n, total int) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total))
}

// Table1 renders the fault→error→failure chain of Table I with the dataset's
// marginal counts.
func Table1(w io.Writer) {
	fmt.Fprintln(w, "Table I — Fault-Error-Failure chain of 81 real-world Kubernetes incidents")
	tw := newTab(w)
	fmt.Fprintln(tw, "Fault\tIncidents")
	byFault := ffda.CountByFault()
	for _, f := range ffda.Faults() {
		fmt.Fprintf(tw, "%s\t%d\n", f, byFault[f])
	}
	fmt.Fprintln(tw, "\t")
	fmt.Fprintln(tw, "Error\tIncidents")
	byError := ffda.CountByError()
	for _, e := range ffda.Errors() {
		fmt.Fprintf(tw, "%s\t%d\n", e, byError[e])
	}
	fmt.Fprintln(tw, "\t")
	fmt.Fprintln(tw, "Failure\tIncidents")
	byFailure := ffda.CountByFailure()
	for _, f := range ffda.Failures() {
		fmt.Fprintf(tw, "%s\t%d\n", f, byFailure[f])
	}
	tw.Flush()
}

// Table3 renders the OF→CF propagation matrix per workload (Table III).
func Table3(w io.Writer, agg *campaign.Aggregate) {
	fmt.Fprintln(w, "Table III — Mapping between orchestrator failures (OF) and client failures (CF)")
	tw := newTab(w)
	fmt.Fprint(tw, "\t")
	for _, wl := range workload.Kinds() {
		for _, cf := range classify.CFs() {
			fmt.Fprintf(tw, "%s/%s\t", wl, cf)
		}
	}
	fmt.Fprintln(tw)
	for _, of := range classify.OFs() {
		fmt.Fprintf(tw, "%s\t", of)
		for _, wl := range workload.Kinds() {
			total := workloadTotal(agg, wl)
			for _, cf := range classify.CFs() {
				n := agg.OFToCF[wl][of][cf]
				if n == 0 {
					fmt.Fprint(tw, "0\t")
				} else {
					fmt.Fprintf(tw, "%d (%s)\t", n, pct(n, total))
				}
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Table4 renders orchestrator-level failure statistics (Table IV).
func Table4(w io.Writer, agg *campaign.Aggregate) {
	failureTable(w, "Table IV — Orchestrator-level failures (OF) by workload and injection type",
		classify.OFs(), agg.OFCounts)
}

// Table5 renders client-level failure statistics (Table V).
func Table5(w io.Writer, agg *campaign.Aggregate) {
	failureTable(w, "Table V — Client-level failures (CF) by workload and injection type",
		classify.CFs(), agg.CFCounts)
}

// failureTable renders one failure level's category counts per workload and
// injection group, with column sums and shares.
func failureTable[K comparable](w io.Writer, title string, categories []K, counts map[workload.Kind]map[campaign.InjGroup]map[K]int) {
	fmt.Fprintln(w, title)
	tw := newTab(w)
	fmt.Fprint(tw, "WL\tInjection\tPerf.")
	for _, cat := range categories {
		fmt.Fprintf(tw, "\t%v", cat)
	}
	fmt.Fprintln(tw)
	for _, wl := range workload.Kinds() {
		for _, group := range campaign.InjGroups() {
			row := counts[wl][group]
			perf := 0
			for _, n := range row {
				perf += n
			}
			if perf == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%d", wl, group, perf)
			for _, cat := range categories {
				fmt.Fprintf(tw, "\t%d", row[cat])
			}
			fmt.Fprintln(tw)
		}
	}
	colTotals, grand := marginals(counts)
	fmt.Fprintf(tw, "Sum\t\t%d", grand)
	for _, cat := range categories {
		fmt.Fprintf(tw, "\t%d", colTotals[cat])
	}
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "%\t\t100%")
	for _, cat := range categories {
		fmt.Fprintf(tw, "\t%s", pct(colTotals[cat], grand))
	}
	fmt.Fprintln(tw)
	tw.Flush()
}

// marginals sums a failure table's counts per category over its rows — every
// workload of workload.Kinds and every injection group — and in all: the
// table's Sum row.
func marginals[K comparable](counts map[workload.Kind]map[campaign.InjGroup]map[K]int) (byCategory map[K]int, total int) {
	byCategory = make(map[K]int)
	for _, wl := range workload.Kinds() {
		for _, row := range counts[wl] {
			for cat, n := range row {
				byCategory[cat] += n
				total += n
			}
		}
	}
	return byCategory, total
}

// Table6 renders the propagation experiments (Table VI).
func Table6(w io.Writer, rows []campaign.PropagationCell) {
	fmt.Fprintln(w, "Table VI — Propagation of component→apiserver channel injections")
	tw := newTab(w)
	fmt.Fprintln(tw, "WL\tComponent\tInj.\tProp\tErr.")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\n", r.Workload, componentLabel(r.Component), r.Injected, r.Propagated, r.Errored)
	}
	tw.Flush()
}

func componentLabel(prefix string) string {
	switch prefix {
	case "kcm":
		return "Kcm"
	case "scheduler":
		return "Scheduler"
	case "kubelet-":
		return "Kubelet"
	default:
		return prefix
	}
}

// windowTable describes one family's timed-fault table: per fault axis (and
// sub-key), the distribution over experiments of the two windows the family
// measures, in simulated milliseconds. The three tables differ only in these
// fields.
type windowTable struct {
	family inject.Family
	title  string
	// empty replaces the table when the campaign ran no fault of the family.
	empty string
	// header and row lay out the columns. row picks, by argument index, from:
	// 1 fault axis, 2 sub-key, 3 experiments, 4-5 first window median and
	// p95, 6-7 second window median and p95, 8 second window total.
	header, row string
}

var (
	haTable = windowTable{
		family: inject.FamilyControlPlane,
		title:  "HA control plane — failover and stale-read windows by fault axis (ms, simulated)",
		empty:  "(no control-plane fault experiments; run with ControlPlaneReplicas >= 2)",
		header: "Fault axis\tn\tfailover med\tfailover p95\tstale med\tstale p95",
		row:    "%[1]v\t%[3]v\t%[4]v\t%[5]v\t%[6]v\t%[7]v\n",
	}
	admissionTable = windowTable{
		family: inject.FamilyAdmission,
		title:  "Admission webhooks — availability outage vs enforcement integrity by fault axis and failure policy",
		empty:  "(no admission fault experiments; run with AdmissionHooks >= 1)",
		header: "Fault axis\tpolicy\tn\toutage med\toutage p95\tviolations",
		row:    "%[1]v\t%[2]v\t%[3]v\t%[4]v\t%[5]v\t%[8]v\n",
	}
	topologyTable = windowTable{
		family: inject.FamilyTopology,
		title:  "Cloud-edge topology — disruption and recovery windows by fault axis and zone (ms, simulated)",
		empty:  "(no topology fault experiments; run with Zones >= 2)",
		header: "Fault axis\tzone\tn\tdisruption med\tdisruption p95\trecovery med\trecovery p95",
		row:    "%[1]v\t%[2]v\t%[3]v\t%[4]v\t%[5]v\t%[6]v\t%[7]v\n",
	}
)

// HATable renders the HA control-plane fault-axis statistics: per fault
// axis, the failover window (control plane unable to act) and the stale-read
// window (some live store replica serving a lagging revision).
func HATable(w io.Writer, agg *campaign.Aggregate) { haTable.render(w, agg) }

// AdmissionTable renders the admission fault-axis trade-off: per webhook
// fault under each failure-policy regime, the write-availability outage
// window (a fail-closed hook unreachable) against the enforcement-integrity
// loss (policy-violating objects admitted, total over the row).
func AdmissionTable(w io.Writer, agg *campaign.Aggregate) { admissionTable.render(w, agg) }

// TopologyTable renders the cloud-edge topology fault-axis statistics in the
// failover-timing style of arXiv:1901.04946: per fault axis against each
// zone, the disruption window (some zone or node link cut) and the recovery
// tail (links restored but the cluster not yet re-converged).
func TopologyTable(w io.Writer, agg *campaign.Aggregate) { topologyTable.render(w, agg) }

func (t windowTable) render(w io.Writer, agg *campaign.Aggregate) {
	fmt.Fprintln(w, t.title)
	// Sub-keys come from the aggregate's rows, sorted for a stable table.
	var subs []string
	for key := range agg.Windows {
		if key.Fault.Family() == t.family && !slices.Contains(subs, key.Sub) {
			subs = append(subs, key.Sub)
		}
	}
	if len(subs) == 0 {
		fmt.Fprintln(w, t.empty)
		return
	}
	sort.Strings(subs)

	tw := newTab(w)
	fmt.Fprintln(tw, t.header)
	for _, fault := range inject.TimedFaults(t.family) {
		for _, sub := range subs {
			series, ok := agg.Windows[campaign.WindowKey{Fault: fault, Sub: sub}]
			if !ok {
				continue
			}
			first, second := sorted(series[0]), sorted(series[1])
			total := 0.0
			for _, v := range second {
				total += v
			}
			fmt.Fprintf(tw, t.row, fault, sub, len(first), ms(quantile(first, 0.5)), ms(quantile(first, 0.95)),
				ms(quantile(second, 0.5)), ms(quantile(second, 0.95)), ms(total))
		}
	}
	tw.Flush()
}

// ms renders a window to the millisecond.
func ms(x float64) string { return strconv.FormatFloat(x, 'f', 0, 64) }

func sorted(xs []float64) []float64 {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	return xs
}

// Table7 renders the real-world vs Mutiny coverage comparison (Table VII).
func Table7(w io.Writer) {
	fmt.Fprintln(w, "Table VII — Real-world subcategories vs what Mutiny can replicate")
	fmt.Fprintln(w, "(* = replicable by Mutiny, ~ = triggered by Mutiny only, plain = real-world only)")
	tw := newTab(w)
	fmt.Fprintln(tw, "Error\tSubcategories")
	errCov := ffda.ErrorCoverage()
	for _, cat := range ffda.Errors() {
		fmt.Fprintf(tw, "%s\t%s\n", cat, renderSubs(errCov[cat]))
	}
	fmt.Fprintln(tw, "\t")
	fmt.Fprintln(tw, "Failure\tSubcategories")
	failCov := ffda.FailureCoverage()
	for _, cat := range []ffda.Failure{ffda.FailureOut, ffda.FailureSta, ffda.FailureNet, ffda.FailureMoR, ffda.FailureLeR, ffda.FailureTim} {
		fmt.Fprintf(tw, "%s\t%s\n", cat, renderSubs(failCov[cat]))
	}
	tw.Flush()
	realWorld, replicable := ffda.CoverageStats()
	fmt.Fprintf(w, "Coverage: %d/%d real-world subcategories replicable; %d/81 incidents replicable (paper: 54/81)\n",
		replicable, realWorld, len(ffda.ReplicableIncidents()))
}

func renderSubs(subs []ffda.SubcategoryCoverage) string {
	out := ""
	for i, sc := range subs {
		if i > 0 {
			out += ", "
		}
		switch sc.Coverage {
		case ffda.Replicable:
			out += "*" + sc.Sub
		case ffda.MutinyOnly:
			out += "~" + sc.Sub
		default:
			out += sc.Sub
		}
	}
	return out
}

// Figure5 renders a golden and an injected client latency time series side
// by side with their z-scores, like the paper's example (z ≈ −0.2 vs 11.0).
func Figure5(w io.Writer, golden, injected []float64, goldenZ, injectedZ float64) {
	fmt.Fprintln(w, "Figure 5 — Client latency time series (golden vs injection)")
	fmt.Fprintf(w, "golden run   z = %+.1f: %s\n", goldenZ, sparkline(golden))
	fmt.Fprintf(w, "injected run z = %+.1f: %s\n", injectedZ, sparkline(injected))
}

// sparkline renders a latency series as a coarse ASCII strip, bucketing the
// series into 60 columns ('_' = failure/zero).
func sparkline(series []float64) string {
	const cols = 60
	if len(series) == 0 {
		return ""
	}
	levels := []byte("_.:-=+*#%@")
	max := 0.0
	for _, v := range series {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		max = 1
	}
	out := make([]byte, 0, cols)
	step := len(series) / cols
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(series); i += step {
		end := i + step
		if end > len(series) {
			end = len(series)
		}
		avg := 0.0
		for _, v := range series[i:end] {
			avg += v
		}
		avg /= float64(end - i)
		idx := int(avg / max * float64(len(levels)-1))
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		out = append(out, levels[idx])
	}
	return string(out)
}

// Figure6 summarizes client z-scores per OF category and workload (the
// paper's box plots), printing five-number summaries.
func Figure6(w io.Writer, agg *campaign.Aggregate) {
	fmt.Fprintln(w, "Figure 6 — Client impact (z-scores of response-time MAE) by OF and workload")
	tw := newTab(w)
	fmt.Fprintln(tw, "WL\tOF\tn\tmin\tq1\tmedian\tq3\tmax")
	for _, wl := range workload.Kinds() {
		for _, of := range classify.OFs() {
			zs := sorted(agg.ZByOF[wl][of])
			if len(zs) == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
				wl, of, len(zs),
				zs[0], quantile(zs, 0.25), quantile(zs, 0.5), quantile(zs, 0.75), zs[len(zs)-1])
		}
	}
	tw.Flush()
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := q * float64(len(sorted)-1)
	lo := int(idx)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Figure7 renders the user-error analysis: experiments in which the cluster
// user received an API error, against totals per OF category.
func Figure7(w io.Writer, agg *campaign.Aggregate) {
	fmt.Fprintln(w, "Figure 7 — Experiments where the user received an error vs total, by OF")
	tw := newTab(w)
	fmt.Fprintln(tw, "WL\tOF\tTotal\tError\tUser-visible")
	for _, wl := range workload.Kinds() {
		for _, of := range classify.OFs() {
			total := 0
			for _, group := range campaign.InjGroups() {
				total += agg.OFCounts[wl][group][of]
			}
			if total == 0 {
				continue
			}
			errs := agg.UserErrByOF[wl][of]
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\n", wl, of, total, errs, pct(errs, total))
		}
	}
	tw.Flush()
}

// CriticalFields renders the §V-C2 critical-field analysis (finding F2).
func CriticalFields(w io.Writer, agg *campaign.Aggregate) {
	fmt.Fprintln(w, "Critical-field analysis (F2) — field categories behind Sta/Out/SU failures")
	byCat, total := agg.CriticalFieldShare()
	tw := newTab(w)
	fmt.Fprintln(tw, "Category\tCritical-failure injections\tShare")
	for _, cat := range campaign.Categories() {
		if byCat[cat] == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\n", cat, byCat[cat], pct(byCat[cat], total))
	}
	fmt.Fprintf(tw, "total\t%d\t100%%\n", total)
	tw.Flush()
	fields := agg.CriticalFields()
	fmt.Fprintf(w, "Distinct critical fields: %d (paper: 34)\n", len(fields))
}

// Findings prints the headline findings F1–F4 computed from the aggregate.
func Findings(w io.Writer, agg *campaign.Aggregate) {
	total := agg.Total()
	if total == 0 {
		return
	}
	sta, out := agg.TotalOF(classify.OFSta), agg.TotalOF(classify.OFOut)
	ler, mor := agg.TotalOF(classify.OFLeR), agg.TotalOF(classify.OFMoR)
	net := agg.TotalOF(classify.OFNet)
	no := agg.TotalOF(classify.OFNone)
	fmt.Fprintf(w, "F1: %s of injections caused system-wide failures (Sta %s + Out %s); ",
		pct(sta+out, total), pct(sta, total), pct(out, total))
	fmt.Fprintf(w, "%s under/over-provisioning (LeR %s + MoR %s); %s service networking; %s no effect.\n",
		pct(ler+mor, total), pct(ler, total), pct(mor, total), pct(net, total), pct(no, total))
	byCat, critTotal := agg.CriticalFieldShare()
	dep := byCat[campaign.CategoryDependency]
	fmt.Fprintf(w, "F2: dependency-tracking fields caused %s of critical failures (%d/%d).\n",
		pct(dep, critTotal), dep, critTotal)
	errored := userErrored(agg)
	fmt.Fprintf(w, "F4: the user received an API error in only %s of experiments (%d/%d).\n",
		pct(errored, total), errored, total)
	fmt.Fprintf(w, "Activation rate: %.0f%% (paper: 82%%).\n", 100*agg.ActivationRate())
}

// userErrored counts the experiments in which the user received an API error
// (finding F4).
func userErrored(agg *campaign.Aggregate) int {
	n := 0
	for _, res := range agg.Results {
		if res.UserErrors > 0 {
			n++
		}
	}
	return n
}

func workloadTotal(agg *campaign.Aggregate, wl workload.Kind) int {
	total := 0
	for _, group := range campaign.InjGroups() {
		for _, n := range agg.OFCounts[wl][group] {
			total += n
		}
	}
	return total
}
