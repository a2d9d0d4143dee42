package main

import (
	"strings"
	"testing"
)

// Whatever followed a positional argument used to be silently dropped
// ("incidents" for "-incidents" printed the tables without the list).
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"incidents"}, `unexpected argument "incidents"`},
		{[]string{"-incidents", "all"}, `unexpected argument "all"`},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}
