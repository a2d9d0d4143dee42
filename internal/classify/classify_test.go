package classify

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func goldenObs(ready int64, endpoints, created int, series []float64) *Observation {
	o := &Observation{
		PodsCreated:            created,
		WorstStartupMS:         2000,
		LastCreationMS:         1000,
		ControlPlaneResponsive: true,
		DNSHealthy:             true,
		PrometheusReachable:    true,
		Series:                 series,
	}
	for i := 0; i < 3; i++ {
		o.scrape(ready, endpoints)
	}
	return o
}

func flatSeries(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func testBaseline() *Baseline {
	var golden []*Observation
	for i := 0; i < 10; i++ {
		o := goldenObs(6, 6, 6, flatSeries(50+float64(i), 600))
		o.WorstStartupMS = 2000 + float64(i*50)
		o.LastCreationMS = 1000 + float64(i*10)
		golden = append(golden, o)
	}
	return BuildBaseline(golden)
}

func TestClassifyGoldenIsNone(t *testing.T) {
	b := testBaseline()
	o := goldenObs(6, 6, 6, flatSeries(54, 600))
	if got := ClassifyOF(o, b); got != OFNone {
		t.Fatalf("OF = %s, want No", got)
	}
	if got := ClassifyCF(o, b); got != CFNSI {
		t.Fatalf("CF = %s, want NSI", got)
	}
}

func TestClassifyLeR(t *testing.T) {
	b := testBaseline()
	o := goldenObs(4, 4, 6, flatSeries(54, 600))
	if got := ClassifyOF(o, b); got != OFLeR {
		t.Fatalf("OF = %s, want LeR", got)
	}
}

func TestClassifyMoR(t *testing.T) {
	b := testBaseline()
	o := goldenObs(9, 9, 9, flatSeries(54, 600))
	if got := ClassifyOF(o, b); got != OFMoR {
		t.Fatalf("OF = %s, want MoR", got)
	}
	// Transient over-provisioning (extra created pods, correct steady state).
	o2 := goldenObs(6, 6, 8, flatSeries(54, 600))
	if got := ClassifyOF(o2, b); got != OFMoR {
		t.Fatalf("transient OF = %s, want MoR", got)
	}
}

func TestClassifyNet(t *testing.T) {
	b := testBaseline()
	// Replicas correct but endpoints missing.
	o := goldenObs(6, 2, 6, flatSeries(54, 600))
	if got := ClassifyOF(o, b); got != OFNet {
		t.Fatalf("OF = %s, want Net", got)
	}
	// Replicas correct, endpoints correct, but scattered client errors.
	o2 := goldenObs(6, 6, 6, flatSeries(54, 600))
	o2.ScatteredErrors = 10
	if got := ClassifyOF(o2, b); got != OFNet {
		t.Fatalf("OF = %s, want Net (intermittent errors)", got)
	}
}

func TestClassifySta(t *testing.T) {
	b := testBaseline()
	// Uncontrolled pod spawn.
	o := goldenObs(6, 6, 600, flatSeries(54, 600))
	if got := ClassifyOF(o, b); got != OFSta {
		t.Fatalf("OF = %s, want Sta (uncontrolled spawn)", got)
	}
	// Stuck control plane.
	o2 := goldenObs(6, 6, 6, flatSeries(54, 600))
	o2.ControlPlaneResponsive = false
	if got := ClassifyOF(o2, b); got != OFSta {
		t.Fatalf("OF = %s, want Sta (control plane stuck)", got)
	}
	// Failed networking pods with the app still serving.
	o3 := goldenObs(6, 6, 6, flatSeries(54, 600))
	o3.NetworkPodsFailing = true
	if got := ClassifyOF(o3, b); got != OFSta {
		t.Fatalf("OF = %s, want Sta (network pods failing)", got)
	}
}

func TestClassifyOut(t *testing.T) {
	b := testBaseline()
	// DNS pods failed.
	o := goldenObs(6, 6, 6, flatSeries(54, 600))
	o.DNSHealthy = false
	if got := ClassifyOF(o, b); got != OFOut {
		t.Fatalf("OF = %s, want Out (DNS down)", got)
	}
	// Everything unreachable, including Prometheus.
	o2 := goldenObs(6, 6, 6, flatSeries(0, 600))
	o2.PrometheusReachable = false
	o2.TrailingFailures = 600
	if got := ClassifyOF(o2, b); got != OFOut {
		t.Fatalf("OF = %s, want Out (all unreachable)", got)
	}
	// Networking pods failing AND the app dead.
	o3 := goldenObs(6, 6, 6, flatSeries(0, 600))
	o3.NetworkPodsFailing = true
	o3.TrailingFailures = 300
	if got := ClassifyOF(o3, b); got != OFOut {
		t.Fatalf("OF = %s, want Out (network + app dead)", got)
	}
}

func TestClassifyTim(t *testing.T) {
	b := testBaseline()
	o := goldenObs(6, 6, 6, flatSeries(54, 600))
	o.AppPodRestart = true
	if got := ClassifyOF(o, b); got != OFTim {
		t.Fatalf("OF = %s, want Tim (pod restarted)", got)
	}
	o2 := goldenObs(6, 6, 6, flatSeries(54, 600))
	o2.WorstStartupMS = 60000 // z >> 3
	if got := ClassifyOF(o2, b); got != OFTim {
		t.Fatalf("OF = %s, want Tim (startup z)", got)
	}
	o3 := goldenObs(6, 6, 6, flatSeries(54, 600))
	o3.SchedulerRestart = 1
	if got := ClassifyOF(o3, b); got != OFTim {
		t.Fatalf("OF = %s, want Tim (scheduler restart)", got)
	}
}

func TestSeverityOrdering(t *testing.T) {
	// An observation matching several categories must take the most severe.
	b := testBaseline()
	o := goldenObs(4, 2, 600, flatSeries(54, 600)) // LeR + Net + Sta signals
	o.DNSHealthy = false                           // + Out
	if got := ClassifyOF(o, b); got != OFOut {
		t.Fatalf("OF = %s, want Out (most severe wins)", got)
	}
}

func TestClassifyCFSUAndIA(t *testing.T) {
	b := testBaseline()
	o := goldenObs(6, 6, 6, flatSeries(54, 600))
	o.TrailingFailures = 100
	if got := ClassifyCF(o, b); got != CFSU {
		t.Fatalf("CF = %s, want SU", got)
	}
	o2 := goldenObs(6, 6, 6, flatSeries(54, 600))
	o2.ScatteredErrors = 8
	if got := ClassifyCF(o2, b); got != CFIA {
		t.Fatalf("CF = %s, want IA", got)
	}
	// Higher response times: shift the series.
	o3 := goldenObs(6, 6, 6, flatSeries(120, 600))
	if got := ClassifyCF(o3, b); got != CFHRT {
		t.Fatalf("CF = %s, want HRT", got)
	}
}

func TestMAE(t *testing.T) {
	if got := MAE([]float64{1, 2, 3}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("identical MAE = %f", got)
	}
	if got := MAE([]float64{2, 4}, []float64{1, 2}); got != 1.5 {
		t.Fatalf("MAE = %f, want 1.5", got)
	}
	// Shorter series are zero-padded.
	if got := MAE([]float64{2}, []float64{2, 4}); got != 2 {
		t.Fatalf("padded MAE = %f, want 2", got)
	}
	if got := MAE(nil, nil); got != 0 {
		t.Fatalf("empty MAE = %f", got)
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %f", got)
	}
	if got := Std(xs); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Std = %f, want 2", got)
	}
	if got := ZScore(9, 5, 2); got != 2 {
		t.Fatalf("ZScore = %f, want 2", got)
	}
	if got := ZScore(1, 1, 0); got != 0 {
		t.Fatalf("degenerate ZScore = %f, want 0", got)
	}
}

func TestMeanSeries(t *testing.T) {
	got := MeanSeries([][]float64{{2, 4}, {4, 8}})
	if len(got) != 2 || got[0] != 3 || got[1] != 6 {
		t.Fatalf("MeanSeries = %v", got)
	}
	// Ragged series extend with zeros.
	got = MeanSeries([][]float64{{2}, {4, 8}})
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("ragged MeanSeries = %v", got)
	}
}

// Property: MAE is symmetric and non-negative (on bounded latencies, which
// is the domain it is used on: milliseconds).
func TestPropertyMAE(t *testing.T) {
	bound := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = math.Mod(math.Abs(x), 10_000)
			if math.IsNaN(out[i]) {
				out[i] = 0
			}
		}
		return out
	}
	prop := func(a, b []float64) bool {
		x, y := bound(a), bound(b)
		m1, m2 := MAE(x, y), MAE(y, x)
		return m1 >= 0 && math.Abs(m1-m2) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestObservationAccessors(t *testing.T) {
	var empty Observation
	if empty.FinalReady() != 0 || empty.FinalEndpoints() != 0 || !empty.Stable() {
		t.Fatal("empty observation accessors broken")
	}
	var o Observation
	o.scrape(2, 1)
	o.scrape(8, 9)
	o.scrape(4, 3)
	if o.MaxReady() != 8 || o.MaxEndpoints() != 9 {
		t.Fatalf("MaxReady/MaxEndpoints = %d/%d", o.MaxReady(), o.MaxEndpoints())
	}
	if o.FinalReady() != 4 || o.FinalEndpoints() != 3 {
		t.Fatal("final accessors broken")
	}
	if o.Stable() {
		t.Fatal("changing tail reported stable")
	}
}

// sample is one 3-second scrape kept whole: the reference accessors below
// read a slice of them.
type sample struct {
	At time.Duration
	// ReadyReplicas sums ready replicas across app ReplicaSets.
	ReadyReplicas int64
	// Endpoints sums endpoint addresses across app Services.
	Endpoints int
}

func refFinalReady(samples []sample) int64 {
	if len(samples) == 0 {
		return 0
	}
	return samples[len(samples)-1].ReadyReplicas
}

func refFinalEndpoints(samples []sample) int {
	if len(samples) == 0 {
		return 0
	}
	return samples[len(samples)-1].Endpoints
}

func refStable(samples []sample) bool {
	n := len(samples)
	if n < 3 {
		return true
	}
	a, b, c := samples[n-3], samples[n-2], samples[n-1]
	return a.ReadyReplicas == c.ReadyReplicas && b.ReadyReplicas == c.ReadyReplicas
}

func refMaxReady(samples []sample) int64 {
	var max int64
	for _, s := range samples {
		if s.ReadyReplicas > max {
			max = s.ReadyReplicas
		}
	}
	return max
}

func refMaxEndpoints(samples []sample) int {
	max := 0
	for _, s := range samples {
		if s.Endpoints > max {
			max = s.Endpoints
		}
	}
	return max
}

// The observation folds each scrape as it lands; its five accessors must read
// what they read over the whole scrape series, before the first scrape and
// after every one — the first two included, where Stable holds by
// definition.
func TestObservationFoldMatchesSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 500; run++ {
		var o Observation
		var samples []sample
		check := func() {
			got := []any{o.FinalReady(), o.FinalEndpoints(), o.Stable(), o.MaxReady(), o.MaxEndpoints()}
			want := []any{refFinalReady(samples), refFinalEndpoints(samples), refStable(samples), refMaxReady(samples), refMaxEndpoints(samples)}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("after scrapes %v: FinalReady, FinalEndpoints, Stable, MaxReady, MaxEndpoints = %v, the samples' %v",
						samples, got, want)
				}
			}
		}
		check()
		for i, n := 0, rng.Intn(20); i < n; i++ {
			// Few distinct values, so settled tails and ties are common.
			s := sample{At: time.Duration(i) * samplePeriod, ReadyReplicas: int64(rng.Intn(4)), Endpoints: rng.Intn(4)}
			o.scrape(s.ReadyReplicas, s.Endpoints)
			samples = append(samples, s)
			check()
		}
	}
}
