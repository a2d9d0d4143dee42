package campaign

import (
	"testing"

	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// admissionOutageTolerance bounds how far one experiment's measured
// write-availability outage may drift between the replay and shared-bootstrap
// regimes: the collector samples degradation every 3 s, so one-and-a-half
// sample periods absorbs any alignment skew between the regimes' windows
// without hiding a genuinely different outage.
const admissionOutageTolerance = 4500.0

// The admission table must be regime-independent: parallel forked workers
// with an armed webhook fault produce the same per-(fault axis, failure
// policy) statistics as sequential replay. The fault timers, the canary
// cadence, and the degradation sampling are all fixed offsets from the
// measurement window, so enforcement-integrity counts (violations admitted)
// must match exactly, spec by spec, and outage windows must agree to within
// sampling tolerance.
func TestAdmissionShareBootstrapEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the admission fault matrix under two regimes")
	}
	specs := GenerateAdmission(workload.Policy, 3)
	if len(specs) == 0 {
		t.Fatal("GenerateAdmission produced no specs; the test is vacuous")
	}

	newRunner := func(share bool) *Runner {
		r := NewRunner()
		r.GoldenRuns = 5
		r.ShareBootstrap = share
		r.ClusterConfig.AdmissionHooks = 3
		return r
	}

	// Sequential replay: every experiment replays bootstrap on one goroutine.
	replayRunner := newRunner(false)
	replay := make([]*Result, len(specs))
	for i, s := range specs {
		replay[i] = replayRunner.Run(s)
	}

	// Shared bootstrap across 8 forked workers: each worker forks its
	// experiment cluster from the cached per-workload snapshot.
	shared := runAll(specs, 8, newRunner(true), (*Worker).Run, nil)

	aggReplay, aggShared := NewAggregate(), NewAggregate()
	for i := range specs {
		ra, rb := replay[i], shared[i]
		desc := specs[i].Injection.Label()
		for _, res := range []*Result{ra, rb} {
			if !res.Report.Fired || !res.Report.Healed {
				t.Fatalf("spec %d (%s): fault did not fire+heal: %+v", i, desc, res.Report)
			}
		}
		if ra.PolicyViolations != rb.PolicyViolations {
			t.Errorf("spec %d (%s): violations diverged: replay=%d shared=%d",
				i, desc, ra.PolicyViolations, rb.PolicyViolations)
		}
		if d := ra.AdmissionOutageMillis - rb.AdmissionOutageMillis; d > admissionOutageTolerance || d < -admissionOutageTolerance {
			t.Errorf("spec %d (%s): outage diverged: replay=%.0fms shared=%.0fms",
				i, desc, ra.AdmissionOutageMillis, rb.AdmissionOutageMillis)
		}
		aggReplay.Add(ra)
		aggShared.Add(rb)
	}

	// Table granularity: both regimes populate the same (fault, policy) cells
	// with the same experiment counts.
	for _, fault := range inject.TimedFaults(inject.FamilyAdmission) {
		for _, policy := range []string{"Fail", "Ignore"} {
			k := WindowKey{Fault: fault, Sub: policy}
			if na, nb := len(aggReplay.Windows[k][0]), len(aggShared.Windows[k][0]); na != nb || na == 0 {
				t.Errorf("cell %s/%s: experiment counts diverged or empty: replay=%d shared=%d",
					fault, policy, na, nb)
			}
		}
	}
}
