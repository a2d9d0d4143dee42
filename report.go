package mutiny

import (
	"io"

	"github.com/mutiny-sim/mutiny/internal/report"
)

// Report rendering: plain-text equivalents of the paper's tables and
// figures, exposed so downstream users of the library can regenerate them
// from their own campaign aggregates.

// RenderTable1 writes the Table I fault→error→failure chain with the FFDA
// dataset's counts.
func RenderTable1(w io.Writer) { report.Table1(w) }

// RenderTable3 writes the OF→CF propagation matrix (Table III).
func RenderTable3(w io.Writer, agg *Aggregate) { report.Table3(w, agg) }

// RenderTable4 writes the orchestrator-level failure statistics (Table IV).
func RenderTable4(w io.Writer, agg *Aggregate) { report.Table4(w, agg) }

// RenderTable5 writes the client-level failure statistics (Table V).
func RenderTable5(w io.Writer, agg *Aggregate) { report.Table5(w, agg) }

// RenderTable6 writes the propagation experiment outcomes (Table VI).
func RenderTable6(w io.Writer, cells []PropagationCell) { report.Table6(w, cells) }

// RenderTable7 writes the real-world vs Mutiny coverage comparison
// (Table VII).
func RenderTable7(w io.Writer) { report.Table7(w) }

// RenderHATable writes the HA control-plane fault-axis statistics: failover
// and stale-read window distributions per fault axis. Prints a placeholder
// line when the campaign ran without control-plane replication.
func RenderHATable(w io.Writer, agg *Aggregate) { report.HATable(w, agg) }

// RenderAdmissionTable writes the admission fault-axis trade-off: per webhook
// fault under each failure-policy regime, the write-availability outage
// window (med+p95) against the count of policy-violating objects admitted.
// Prints a placeholder line when the campaign ran without admission hooks.
func RenderAdmissionTable(w io.Writer, agg *Aggregate) { report.AdmissionTable(w, agg) }

// RenderTopologyTable writes the cloud-edge topology fault-axis statistics:
// disruption and recovery window distributions per fault axis and zone.
// Prints a placeholder line when the campaign ran on a flat network.
func RenderTopologyTable(w io.Writer, agg *Aggregate) { report.TopologyTable(w, agg) }

// RenderFigure5 writes a golden vs injected latency time-series comparison
// (Figure 5).
func RenderFigure5(w io.Writer, golden, injected []float64, goldenZ, injectedZ float64) {
	report.Figure5(w, golden, injected, goldenZ, injectedZ)
}

// RenderFigure6 writes the per-OF client z-score summaries (Figure 6).
func RenderFigure6(w io.Writer, agg *Aggregate) { report.Figure6(w, agg) }

// RenderFigure7 writes the user-visible-error analysis (Figure 7).
func RenderFigure7(w io.Writer, agg *Aggregate) { report.Figure7(w, agg) }

// RenderCriticalFields writes the §V-C2 critical-field analysis (finding F2).
func RenderCriticalFields(w io.Writer, agg *Aggregate) { report.CriticalFields(w, agg) }

// RenderFindings writes the headline findings (F1, F2, F4) computed from an
// aggregate.
func RenderFindings(w io.Writer, agg *Aggregate) { report.Findings(w, agg) }
