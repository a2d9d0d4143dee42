package report

import (
	"bytes"
	"flag"
	"os"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/campaign"
	"github.com/mutiny-sim/mutiny/internal/classify"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/windows.golden from the current renderer")

// windowResults is a synthetic result set — no simulation — covering every
// timed-fault axis against every target the generators enumerate (3 replicas,
// 3 hooks under both policies, 2 non-core zones under each workload), with window values spread
// so medians and p95s interpolate, plus message-fault results whose reports
// carry each dynamic type an observed field value can have.
func windowResults() []*campaign.Result {
	var specs []campaign.Spec
	specs = append(specs, campaign.GenerateControlPlane(workload.Policy, 3)...)
	specs = append(specs, campaign.GenerateAdmission(workload.Policy, 3)...)
	for _, wl := range workload.Kinds() {
		specs = append(specs, campaign.GenerateTopology(wl, 3)...)
	}
	var out []*campaign.Result
	for i, s := range specs {
		n := float64(i)
		out = append(out, &campaign.Result{
			Spec: s,
			OF:   classify.OFs()[i%len(classify.OFs())],
			CF:   classify.CFs()[i%len(classify.CFs())],
			Z:    n/4 - 2,
			Report: inject.Report{
				Fired: true, FiredAt: 3 * time.Second, Activated: true,
				Instance: s.Injection.Label(),
				Healed:   i%5 != 0, HealedAt: 18 * time.Second,
			},
			UserErrors:  i % 3,
			PodsCreated: 10 + i,

			FailoverMillis:           float64(i * 371 % 9000),
			StaleReadMillis:          float64(i * 1237 % 4000),
			AdmissionOutageMillis:    float64(i * 613 % 15000),
			PolicyViolations:         i * 7 % 11,
			TopologyDisruptionMillis: float64(i * 929 % 15000),
			TopologyRecoveryMillis:   float64(i * 83 % 6000),
		})
	}
	for i, old := range []any{int64(3), true, "nginx", nil} {
		in := inject.Injection{
			Channel: inject.ChannelStore, Kind: spec.KindDeployment,
			FieldPath: "spec.replicas", Type: inject.BitFlip, Occurrence: i + 1,
		}
		rep := inject.Report{
			Fired: old != nil, FiredAt: time.Duration(i) * time.Second,
			Instance: "default/web", StoreKey: "/registry/deployments/default/web",
			Activated: i%2 == 0, OldValue: old,
		}
		switch v := old.(type) {
		case int64:
			rep.NewValue = v ^ 1
		case bool:
			rep.NewValue = !v
		case string:
			rep.NewValue = "oginx"
		}
		out = append(out, &campaign.Result{
			Spec:          campaign.Spec{Workload: workload.Deploy, Injection: &in, Seed: int64(i)},
			OF:            classify.OFMoR,
			CF:            classify.CFHRT,
			Z:             1.5,
			Report:        rep,
			PropPersisted: i%2 == 0,
			PropErrored:   i%2 == 1,
		})
	}
	return out
}

func renderWindowTables(results []*campaign.Result) []byte {
	var buf bytes.Buffer
	agg := campaign.NewAggregate()
	// The empty aggregate pins the placeholder lines, the populated one the
	// tables.
	for pass := 0; pass < 2; pass++ {
		HATable(&buf, agg)
		AdmissionTable(&buf, agg)
		TopologyTable(&buf, agg)
		for _, res := range results {
			agg.Add(res)
		}
		results = nil
	}
	return buf.Bytes()
}

// TestWindowTablesMatchGolden is the byte-identity oracle of the timed-fault
// refactor: testdata/windows.golden was rendered by the three hand-written
// per-family tables at the commit before the refactor; the one table-driven
// renderer must reproduce it byte for byte.
func TestWindowTablesMatchGolden(t *testing.T) {
	results := windowResults()
	got := renderWindowTables(results)
	const path = "testdata/windows.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("window tables diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
