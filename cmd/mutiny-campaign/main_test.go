package main

import (
	"strings"
	"testing"
)

// An unknown workload name must fail the run before anything executes, not
// campaign a no-op driver; a list that names no workload must not fall back
// to every workload.
func TestRunRejectsUnknownWorkload(t *testing.T) {
	for _, tc := range []struct {
		list string
		want string // substring of the error
	}{
		{"deploy,scael", `unknown workload "scael"`},
		{",", `-workloads "," names no workload`},
	} {
		err := run([]string{"-quiet", "-workloads", tc.list})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(-workloads %q) = %v, want error containing %q", tc.list, err, tc.want)
		}
	}
}

// Out-of-range counts are rejected where they enter, before any cluster is
// built from them.
func TestRunRejectsOutOfRangeCounts(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-control-plane-replicas", "-1"}, "-control-plane-replicas must be >= 0, got -1"},
		{[]string{"-nodes", "-3"}, "-nodes must be >= 0, got -3"},
		{[]string{"-zones", "-2"}, "-zones must be >= 0, got -2"},
		{[]string{"-edge-nodes", "-1"}, "-edge-nodes must be >= 0, got -1"},
		{[]string{"-golden", "-5"}, "-golden must be >= 1, got -5"},
		{[]string{"-golden", "0"}, "-golden must be >= 1, got 0"},
		{[]string{"-admission-hooks", "-1"}, "-admission-hooks must be >= 0, got -1"},
		{[]string{"-admission-hooks", "4"}, "-admission-hooks must be 0-3, got 4"},
		{[]string{"-stride", "0"}, "-stride must be >= 1, got 0"},
		{[]string{"-stride", "-5"}, "-stride must be >= 1, got -5"},
		{[]string{"-parallel", "-3"}, "-parallel must be >= 0, got -3"},
		// Zone layouts the cluster would build with a zone holding no node.
		{[]string{"-zones", "5"}, "-zones 5 leaves zones [3 4] without a worker node"},
		{[]string{"-zones", "3", "-nodes", "3", "-edge-nodes", "2"}, "-zones 3 leaves zones [1] without a worker node"},
		{[]string{"-edge-nodes", "2"}, "-edge-nodes needs -zones >= 2, got -zones 0"},
		{[]string{"-nodes", "4", "-zones", "2", "-edge-nodes", "9"}, "-edge-nodes 9 exceeds the 3 workers outside the monitoring node"},
	} {
		err := run(append([]string{"-quiet"}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}

// Flag parsing stops at the first positional argument, so one missing dash
// ("stride 400") used to turn a half-second mini campaign into the full
// stride-1, 100-golden one without a word. A stray word is an error.
func TestRunRejectsPositionalArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-quiet", "stride", "400", "-golden", "3"}, `unexpected argument "stride"`},
		{[]string{"-quiet", "-stride", "400", "extra"}, `unexpected argument "extra"`},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}
