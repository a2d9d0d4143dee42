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
		// Everything after a stray word (a flag missing its dash) used to be
		// silently dropped, and the default injection ran instead.
		{[]string{"field", "spec.replicas", "-fault", "set"}, `unexpected argument "field"`},
	} {
		if _, _, err := parse(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parse(%v) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}

func TestParseRejectsOutOfRangeIndexes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error; "" = accepted
	}{
		{[]string{"-bit", "-3"}, "-bit must be 0-63, got -3"},
		{[]string{"-bit", "64"}, "-bit must be 0-63, got 64"},
		{[]string{"-bit", "63"}, ""},
		{[]string{"-char", "-1"}, "-char must be >= 0, got -1"},
		{[]string{"-char", "0"}, ""},
		{[]string{"-occurrence", "0"}, "-occurrence must be >= 1, got 0"},
		{[]string{"-occurrence", "-2"}, "-occurrence must be >= 1, got -2"},
	} {
		_, _, err := parse(tc.args)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("parse(%v) = %v, want accepted", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("parse(%v) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
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
