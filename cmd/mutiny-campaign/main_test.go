package main

import (
	"strings"
	"testing"
)

// An unknown workload name must fail the run before anything executes, not
// campaign a no-op driver.
func TestRunRejectsUnknownWorkload(t *testing.T) {
	err := run([]string{"-quiet", "-workloads", "deploy,scael"})
	if err == nil || !strings.Contains(err.Error(), `unknown workload "scael"`) {
		t.Fatalf("run = %v, want unknown-workload error", err)
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
		{[]string{"-golden", "-5"}, "-golden must be >= 0, got -5"},
		{[]string{"-admission-hooks", "-1"}, "-admission-hooks must be >= 0, got -1"},
		{[]string{"-admission-hooks", "4"}, "-admission-hooks must be 0-3, got 4"},
		{[]string{"-stride", "0"}, "-stride must be >= 1, got 0"},
		{[]string{"-stride", "-5"}, "-stride must be >= 1, got -5"},
		{[]string{"-parallel", "-3"}, "-parallel must be >= 0, got -3"},
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
