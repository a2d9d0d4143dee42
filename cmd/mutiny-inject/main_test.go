package main

import (
	"strings"
	"testing"

	mutiny "github.com/mutiny-sim/mutiny"
)

func TestParseRejectsUnknownNames(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-channel", "etcd"}, `unknown channel "etcd"`},
		{[]string{"-workload", "depoly"}, `unknown workload "depoly"`},
		{[]string{"-fault", "flip"}, `unknown fault model "flip"`},
		// An unknown kind ran an injection that could never match a message.
		{[]string{"-kind", "pod"}, `unknown kind "pod" (want one of [Pod ReplicaSet`},
		{[]string{"-kind", "Foo"}, `unknown kind "Foo"`},
		// Everything after a stray word (a flag missing its dash) used to be
		// silently dropped, and the default injection ran instead.
		{[]string{"field", "spec.replicas", "-fault", "set"}, `unexpected argument "field"`},
	} {
		if _, _, err := parse(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parse(%v) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}

type parseCase struct {
	args []string
	want string // substring of the error; "" = accepted
}

// parseCases runs parse on each case's arguments and holds it to the case's
// error substring.
func parseCases(t *testing.T, cases []parseCase) {
	t.Helper()
	for _, tc := range cases {
		_, _, err := parse(tc.args)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("parse(%v) = %v, want accepted", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("parse(%v) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}

func TestParseRejectsOutOfRangeIndexes(t *testing.T) {
	parseCases(t, []parseCase{
		{[]string{"-bit", "-3"}, "-bit must be 0-63, got -3"},
		{[]string{"-bit", "64"}, "-bit must be 0-63, got 64"},
		{[]string{"-bit", "63"}, ""},
		{[]string{"-char", "-1"}, "-char must be >= 0, got -1"},
		{[]string{"-char", "0"}, ""},
		{[]string{"-occurrence", "0"}, "-occurrence must be >= 1, got 0"},
		{[]string{"-occurrence", "-2"}, "-occurrence must be >= 1, got -2"},
		// Below 1 the runner silently built its default 100 golden runs.
		{[]string{"-golden", "0"}, "-golden must be >= 1, got 0"},
		{[]string{"-golden", "-5"}, "-golden must be >= 1, got -5"},
		{[]string{"-golden", "1"}, ""},
	})
}

// A flag the chosen injection would not read used to be dropped without a
// word, and a plainer injection ran in its place.
func TestParseRejectsFlagsTheInjectionIgnores(t *testing.T) {
	parseCases(t, []parseCase{
		{[]string{"-kind", "Deployment", "-fault", "drop", "-field", "spec.replicas", "-value", "7"}, "-value needs -fault set, got -fault drop"},
		{[]string{"-channel", "store", "-source", "kcm"}, "-source needs -channel request, got -channel store"},
		{[]string{"-kind", "Deployment", "-fault", "drop", "-field", "spec.replicas"}, "-field does not apply to -fault drop"},
		{[]string{"-kind", "Deployment", "-fault", "protobyte", "-field", "spec.replicas"}, "-field does not apply to -fault protobyte"},
		{[]string{"-channel", "request", "-source", "kcm", "-kind", "ReplicaSet", "-field", "spec.replicas", "-fault", "set", "-value", "0"}, ""},
		// The paper's empty-string set.
		{[]string{"-field", "spec.containers[0].image", "-fault", "set", "-value", ""}, ""},
	})
}

func TestParseChannelsAndWorkloads(t *testing.T) {
	channels := map[string]string{
		"store":   mutiny.ChannelStore.String(),
		"request": mutiny.ChannelRequest.String(),
		"watch":   mutiny.ChannelWatch.String(),
	}
	for name, want := range channels {
		spec, _, err := parse([]string{"-channel", name})
		if err != nil || spec.Injection.Channel.String() != want {
			t.Errorf("-channel %s: got %v, err %v, want %s", name, spec.Injection, err, want)
		}
	}
	for _, wl := range []mutiny.WorkloadKind{mutiny.WorkloadDeploy, mutiny.WorkloadScaleUp, mutiny.WorkloadFailover, mutiny.WorkloadPolicy} {
		spec, _, err := parse([]string{"-workload", string(wl)})
		if err != nil || spec.Workload != wl {
			t.Errorf("-workload %s: got %q, err %v", wl, spec.Workload, err)
		}
	}
}

// Figure 5's experiment: the scale workload with its Deployment's replica
// count set to 0 on the second write.
func TestRunFigure5(t *testing.T) {
	args := []string{"-workload", "scale", "-kind", "Deployment", "-field", "spec.replicas",
		"-fault", "set", "-value", "0", "-occurrence", "2"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}
