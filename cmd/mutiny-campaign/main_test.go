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
