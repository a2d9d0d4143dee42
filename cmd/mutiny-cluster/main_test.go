package main

import (
	"strings"
	"testing"
)

// An unknown workload used to run a no-op driver and report a healthy cluster;
// a negative horizon, and whatever followed a positional argument, used to be
// ignored. All are errors before anything boots.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-workload", "bogus"}, `unknown workload "bogus"`},
		{[]string{"-horizon", "-1s"}, "-horizon must be >= 0, got -1s"},
		// Everything after a stray word used to be silently dropped.
		{[]string{"workload", "scale", "-horizon", "1s"}, `unexpected argument "workload"`},
	} {
		err := run(append([]string{"-events=false"}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}

func TestRunScaleWorkload(t *testing.T) {
	if err := run([]string{"-workload", "scale", "-events=false", "-horizon", "1s"}); err != nil {
		t.Fatal(err)
	}
}
