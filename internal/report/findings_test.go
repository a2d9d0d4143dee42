package report

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/campaign"
	"github.com/mutiny-sim/mutiny/internal/classify"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

var (
	update       = flag.Bool("update", false, "rewrite testdata/findings.golden from this run")
	findingsFull = flag.Bool("findings-full", false, "run the findings oracle over the full campaign (stride 1) instead of the tier-1 stride")
)

const findingsGolden = "testdata/findings.golden"

// findingsCampaign is the oracle's campaign: the fork regime over all four
// workloads, without the refinement and propagation rounds, which no finding
// below reads. Stride 2 runs about 4,300 experiments; stride 1 is the full
// matrix.
func findingsCampaign(stride int) campaign.Config {
	return campaign.Config{
		Workloads:       append(workload.Kinds(), workload.Policy),
		GoldenRuns:      20,
		SampleStride:    stride,
		ShareBootstrap:  true,
		SkipRefinement:  true,
		SkipPropagation: true,
	}
}

// finding is one share a campaign computes: k of n.
type finding struct {
	name string
	k, n int
}

func (f finding) share() float64 {
	if f.n == 0 {
		return 0
	}
	return float64(f.k) / float64(f.n)
}

// band is how far a recomputed share may sit from this committed one: three
// standard errors of a binomial share at the committed sample size, and never
// less than half a percentage point. A share that moves further has changed
// for a reason, and the reason is the finding.
func (f finding) band() float64 {
	if f.n == 0 {
		return 0.005
	}
	p := f.share()
	return math.Max(0.005, 3*math.Sqrt(p*(1-p)/float64(f.n)))
}

// findings computes what the report says about a campaign: F1's failure
// shares, F2's share of each field category among critical failures, F4's
// user-error share, the activation rate, and the OF and CF marginals of
// Tables IV and V — each the same count the rendered text prints.
func findings(agg *campaign.Aggregate) []finding {
	total := agg.Total()
	out := []finding{
		{"F1.Sta+Out", agg.TotalOF(classify.OFSta) + agg.TotalOF(classify.OFOut), total},
		{"F1.LeR", agg.TotalOF(classify.OFLeR), total},
		{"F1.MoR", agg.TotalOF(classify.OFMoR), total},
		{"F1.Net", agg.TotalOF(classify.OFNet), total},
		{"F1.None", agg.TotalOF(classify.OFNone), total},
	}
	byCat, critical := agg.CriticalFieldShare()
	for _, cat := range campaign.Categories() {
		out = append(out, finding{"F2." + string(cat), byCat[cat], critical})
	}
	out = append(out,
		finding{"F4.user-error", userErrored(agg), total},
		finding{"activation", agg.Activated, agg.Fired})
	ofs, n := marginals(agg.OFCounts)
	for _, o := range classify.OFs() {
		out = append(out, finding{"IV." + o.String(), ofs[o], n})
	}
	cfs, n := marginals(agg.CFCounts)
	for _, c := range classify.CFs() {
		out = append(out, finding{"V." + c.String(), cfs[c], n})
	}
	return out
}

func formatFindings(fs []finding, stride int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# The paper's findings as the tier-1 findings campaign computes them (stride %d,\n", stride)
	fmt.Fprintf(&b, "# fork regime, all four workloads): name, k/n, share. Written by\n")
	fmt.Fprintf(&b, "# `go test ./internal/report -run TestPaperFindingsHold -update`; read by the same test.\n")
	for _, f := range fs {
		fmt.Fprintf(&b, "%s %d/%d %.2f%%\n", f.name, f.k, f.n, 100*f.share())
	}
	return b.Bytes()
}

func parseFindings(t *testing.T, data []byte) map[string]finding {
	t.Helper()
	out := make(map[string]finding)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var f finding
		var pct string
		if _, err := fmt.Sscanf(line, "%s %d/%d %s", &f.name, &f.k, &f.n, &pct); err != nil {
			t.Fatalf("%s: bad line %q: %v", findingsGolden, line, err)
		}
		out[f.name] = f
	}
	return out
}

// TestPaperFindingsHold is the findings oracle: the paper's headline results,
// as this simulator reproduces them, held to testdata/findings.golden. The
// per-spec goldens of the benchmark say whether each experiment ended the
// same; this says whether the campaign still says the same thing. Each share
// must sit within its band (see finding.band) of the committed one, and the
// qualitative claims the report's text makes must hold. A share outside its
// band is a finding to explain, not a band to widen; only a change that means
// to move outcomes rewrites the golden (-update), and quotes the before and
// after.
//
// With -findings-full (make findings-full) the same check runs over the full
// campaign, against the same committed shares: the tier-1 stride is a sample
// of it, and the bands cover the sampling.
func TestPaperFindingsHold(t *testing.T) {
	stride := 2
	if *findingsFull {
		if *update {
			t.Fatal("-update rewrites the tier-1 golden; run it without -findings-full")
		}
		stride = 1
	}
	out := campaign.RunCampaign(findingsCampaign(stride))
	got := findings(out.Main)
	if *update {
		if err := os.WriteFile(findingsGolden, formatFindings(got, stride), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(findingsGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := parseFindings(t, data)
	if len(want) != len(got) {
		t.Errorf("%s holds %d findings, the campaign computes %d", findingsGolden, len(want), len(got))
	}
	for _, g := range got {
		w, ok := want[g.name]
		if !ok {
			t.Errorf("%s: not in %s", g.name, findingsGolden)
			continue
		}
		if d := math.Abs(g.share() - w.share()); d > w.band() {
			t.Errorf("%s: %d/%d = %.2f%%, committed %d/%d = %.2f%%: %.2f points off, the band is %.2f",
				g.name, g.k, g.n, 100*g.share(), w.k, w.n, 100*w.share(), 100*d, 100*w.band())
		}
	}

	// F4: "the user received an API error in only ..." — a minority.
	if errored, total := userErrored(out.Main), out.Main.Total(); 2*errored >= total {
		t.Errorf("F4: the user saw an API error in %d of %d experiments; the paper's \"only\" needs a minority", errored, total)
	}

	// F2: dependency-tracking fields are the largest category behind critical
	// failures — over the application's own objects. Over every kind the
	// simulator does not agree: flips of a Node's or a Lease's name or
	// namespace (a kubelet's registration, a leader lease) strand the node or
	// the elected component, and make identity the largest category (the
	// F2.identity line of the golden). ROADMAP item 1 records that as a
	// finding to explain.
	byCat := make(map[campaign.FieldCategory]int)
	for _, res := range out.Main.Results {
		in := res.Spec.Injection
		if in != nil && in.FieldPath != "" && in.Kind != spec.KindNode && in.Kind != spec.KindLease && res.Critical() {
			byCat[campaign.Categorize(in.FieldPath)]++
		}
	}
	for cat, n := range byCat {
		if cat != campaign.CategoryDependency && n >= byCat[campaign.CategoryDependency] {
			t.Errorf("F2: %s fields caused %d critical failures of application objects, dependency fields %d; the paper's dependency fields lead", cat, n, byCat[campaign.CategoryDependency])
		}
	}
}
