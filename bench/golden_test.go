package main

import (
	"fmt"
	"strings"
	"testing"

	"github.com/mutiny-sim/mutiny/internal/classify"
)

func TestOutcomeLine(t *testing.T) {
	o := outcome{of: classify.OFSta, cf: classify.CFHRT, fired: true, pods: 1724, userErrors: 2}
	if got, want := o.line(7, false), "7 Sta HRT fired=true pods=1724 usererr=2"; got != want {
		t.Errorf("line = %q, want %q", got, want)
	}
	p := outcome{fired: true, userErrors: 1, persisted: true}
	if got, want := p.line(3, true), "3 - - fired=true pods=0 usererr=1 persisted=true errored=false"; got != want {
		t.Errorf("propagation line = %q, want %q", got, want)
	}
	if got := (outcome{panicked: true}).line(9, false); got != "9 PANIC" {
		t.Errorf("panic line = %q", got)
	}
}

func TestDiffGolden(t *testing.T) {
	want := []string{"0 No NSI", "1 Sta HRT", "2 No NSI"}
	if failed, examples := diffGolden(want, []string{"0 No NSI", "1 Sta HRT", "2 No NSI"}); failed != 0 || examples != nil {
		t.Errorf("identical outcomes: %d failed, %v", failed, examples)
	}
	failed, examples := diffGolden(want, []string{"0 No NSI", "1 No NSI", "2 PANIC"})
	if failed != 2 || len(examples) != 2 || !strings.Contains(examples[0], `"1 Sta HRT"`) {
		t.Errorf("two differing outcomes: %d failed, %v", failed, examples)
	}
	// Another spec list invalidates every line, not only the extra ones.
	failed, examples = diffGolden(want, []string{"0 No NSI", "1 Sta HRT"})
	if failed != 2 || len(examples) != 1 {
		t.Errorf("shorter list: %d failed, %v", failed, examples)
	}
}

// Every workload must have committed outcomes, numbered like its list.
func TestGoldenFilesAreWellFormed(t *testing.T) {
	for _, w := range workloads {
		lines, err := loadGolden(w.list)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(lines) == 0 {
			t.Fatalf("%s: golden file %s is empty", w.name, w.list)
		}
		for i, line := range lines {
			if !strings.HasPrefix(line, fmt.Sprintf("%d ", i)) {
				t.Fatalf("%s: line %d is %q", w.list, i, line)
			}
		}
	}
}
