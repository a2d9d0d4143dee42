package main

import (
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/mutiny-sim/mutiny/internal/campaign"
	"github.com/mutiny-sim/mutiny/internal/classify"
)

// goldenFS holds the committed outcomes, one file per spec list, so the
// check does not depend on the directory the benchmark is started from.
//
//go:embed golden/*.txt
var goldenFS embed.FS

// goldenDir is where -update-golden rewrites the files, relative to the
// repository root (the directory `go run ./bench` is started from).
const goldenDir = "bench/golden"

// outcome is what one experiment must reproduce: the simulated statistics a
// speed-up has to leave untouched. It is comparable and holds no pointers, so
// recording one per experiment allocates nothing inside a timed pass.
type outcome struct {
	of         classify.OF
	cf         classify.CF
	fired      bool
	pods       int
	userErrors int
	// persisted and errored are the Table VI columns of a propagation spec.
	persisted, errored bool
	// panicked marks an experiment that did not return.
	panicked bool
}

func outcomeOf(res *campaign.Result) outcome {
	return outcome{
		of: res.OF, cf: res.CF, fired: res.Report.Fired,
		pods: res.PodsCreated, userErrors: res.UserErrors,
		persisted: res.PropPersisted, errored: res.PropErrored,
	}
}

// line renders the golden-file line of spec index i. Propagation specs carry
// no classification, so their OF/CF columns read "-".
func (o outcome) line(i int, prop bool) string {
	if o.panicked {
		return fmt.Sprintf("%d PANIC", i)
	}
	of, cf := o.of.String(), o.cf.String()
	if prop {
		of, cf = "-", "-"
	}
	s := fmt.Sprintf("%d %s %s fired=%t pods=%d usererr=%d", i, of, cf, o.fired, o.pods, o.userErrors)
	if prop {
		s += fmt.Sprintf(" persisted=%t errored=%t", o.persisted, o.errored)
	}
	return s
}

func outcomeLines(items []item, got []outcome) []string {
	lines := make([]string, len(got))
	for i, o := range got {
		lines[i] = o.line(i, items[i].prop)
	}
	return lines
}

// loadGolden returns the committed outcome lines of a spec list.
func loadGolden(list string) ([]string, error) {
	b, err := goldenFS.ReadFile("golden/" + list + ".txt")
	if err != nil {
		return nil, fmt.Errorf("reading golden outcomes: %w", err)
	}
	return strings.Split(strings.TrimRight(string(b), "\n"), "\n"), nil
}

// writeGolden rewrites a spec list's golden file in the source tree.
func writeGolden(list string, lines []string) error {
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(goldenDir, list+".txt")
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

// maxExamples bounds the differences diffGolden describes in words.
const maxExamples = 5

// diffGolden compares one pass's outcome lines with the reference. It
// returns the number of failed experiments and a description of the first
// few. A length mismatch means the generated spec list itself changed: every
// experiment then counts as failed, because no line can be trusted to
// describe the same spec.
func diffGolden(want, got []string) (failed int, examples []string) {
	if len(want) != len(got) {
		return len(got), []string{fmt.Sprintf("spec list has %d experiments, golden file %d", len(got), len(want))}
	}
	for i := range got {
		if got[i] != want[i] {
			failed++
			if len(examples) < maxExamples {
				examples = append(examples, fmt.Sprintf("want %q, got %q", want[i], got[i]))
			}
		}
	}
	return failed, examples
}
