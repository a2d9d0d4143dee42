// Command mutiny-inject runs a single fault/error injection experiment: one
// workload, one injection described by the (where, what, when) triple, and
// prints the two-level failure classification — the smallest useful unit of
// the paper's method.
//
// Examples:
//
//	mutiny-inject -workload deploy -kind ReplicaSet \
//	    -field 'spec.template.labels[app]' -fault set -value mislabeled -occurrence 2
//
//	mutiny-inject -workload scale -kind Deployment -field spec.replicas \
//	    -fault bitflip -bit 4
//
//	mutiny-inject -workload deploy -kind Deployment -fault drop
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	mutiny "github.com/mutiny-sim/mutiny"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mutiny-inject:", err)
		os.Exit(1)
	}
}

// parse turns the command line into the experiment to run and the number of
// golden runs to classify it against, rejecting names it does not know
// instead of running something else in their place.
func parse(args []string) (mutiny.Spec, int, error) {
	fs := flag.NewFlagSet("mutiny-inject", flag.ContinueOnError)
	var (
		wl      = fs.String("workload", "deploy", "workload: deploy, scale, failover, or policy")
		kind    = fs.String("kind", "Pod", "resource kind to target")
		channel = fs.String("channel", "store", "channel: store (apiserver→etcd), request (component→apiserver), or watch (apiserver→component)")
		source  = fs.String("source", "", "component prefix filter for the request channel (kcm, scheduler, kubelet-)")
		field   = fs.String("field", "", "field path, e.g. spec.replicas or metadata.labels[app]")
		fault   = fs.String("fault", "bitflip", "fault model: bitflip, set, drop, or protobyte")
		bit     = fs.Int("bit", 0, "bit index for integer bit flips (paper uses 0 and 4)")
		char    = fs.Int("char", 0, "character index for string bit flips")
		value   = fs.String("value", "", "replacement value for -fault set")
		occ     = fs.Int("occurrence", 1, "occurrence index of the injected message (1-based)")
		seed    = fs.Int64("seed", 1, "simulation seed")
		golden  = fs.Int("golden", 30, "golden runs for the classification baseline")
	)
	if err := fs.Parse(args); err != nil {
		return mutiny.Spec{}, 0, err
	}
	if fs.NArg() > 0 {
		// Flag parsing stops at the first positional argument: everything after
		// a stray word (a flag missing its dash) would be silently ignored.
		return mutiny.Spec{}, 0, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	workload, err := mutiny.ParseWorkload(*wl)
	if err != nil {
		return mutiny.Spec{}, 0, err
	}
	switch {
	case *bit < 0 || *bit > 63:
		return mutiny.Spec{}, 0, fmt.Errorf("-bit must be 0-63, got %d", *bit)
	case *char < 0:
		return mutiny.Spec{}, 0, fmt.Errorf("-char must be >= 0, got %d", *char)
	case *occ < 1:
		return mutiny.Spec{}, 0, fmt.Errorf("-occurrence must be >= 1, got %d", *occ)
	}

	in := mutiny.Injection{
		Kind:         mutiny.ResourceKind(*kind),
		SourcePrefix: *source,
		FieldPath:    *field,
		Bit:          *bit,
		CharIndex:    *char,
		Occurrence:   *occ,
	}
	switch *channel {
	case "store":
		in.Channel = mutiny.ChannelStore
	case "request":
		in.Channel = mutiny.ChannelRequest
	case "watch":
		in.Channel = mutiny.ChannelWatch
	default:
		return mutiny.Spec{}, 0, fmt.Errorf("unknown channel %q (want store, request or watch)", *channel)
	}
	switch *fault {
	case "bitflip":
		in.Type = mutiny.BitFlip
	case "set":
		in.Type = mutiny.SetValue
		if n, err := strconv.ParseInt(*value, 10, 64); err == nil {
			in.Value = n
		} else if *value == "true" || *value == "false" {
			in.Value = *value == "true"
		} else {
			in.Value = *value
		}
	case "drop":
		in.Type = mutiny.DropMessage
	case "protobyte":
		in.Type = mutiny.FlipProtoByte
	default:
		return mutiny.Spec{}, 0, fmt.Errorf("unknown fault model %q", *fault)
	}
	return mutiny.Spec{Workload: workload, Seed: *seed, Injection: &in}, *golden, nil
}

func run(args []string) error {
	spec, golden, err := parse(args)
	if err != nil {
		return err
	}
	in := spec.Injection

	runner := mutiny.NewRunner()
	runner.GoldenRuns = golden
	fmt.Fprintf(os.Stderr, "building %d-run golden baseline for %q...\n", golden, spec.Workload)
	res := runner.Run(spec)

	fmt.Printf("injection: %s\n", in.Label())
	fmt.Printf("fired: %v", res.Report.Fired)
	if res.Report.Fired {
		fmt.Printf(" at %v on %s (activated: %v)", res.Report.FiredAt, res.Report.Instance, res.Report.Activated)
		if res.Report.OldValue != nil {
			fmt.Printf("; %v → %v", res.Report.OldValue, res.Report.NewValue)
		}
	}
	fmt.Println()
	fmt.Printf("orchestrator-level failure: %s\n", res.OF)
	fmt.Printf("client-level failure:       %s (z = %.2f)\n", res.CF, res.Z)
	fmt.Printf("pods created in window:     %d\n", res.PodsCreated)
	fmt.Printf("user-visible API errors:    %d\n", res.UserErrors)
	return nil
}
