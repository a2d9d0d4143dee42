// Command mutiny-cluster boots the simulated orchestration system, runs a
// workload against it, and streams the cluster's watch events — a quick way
// to see the substrate working before pointing Mutiny at it.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	mutiny "github.com/mutiny-sim/mutiny"
	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mutiny-cluster:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mutiny-cluster", flag.ContinueOnError)
	var (
		wl      = fs.String("workload", "deploy", "workload to run: deploy, scale, failover, or policy")
		seed    = fs.Int64("seed", 1, "simulation seed")
		horizon = fs.Duration("horizon", 60*time.Second, "simulated time to run after the workload")
		events  = fs.Bool("events", true, "stream watch events")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		// Flag parsing stops at the first positional argument: everything after
		// a stray word (a flag missing its dash) would be silently ignored.
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	kind, err := mutiny.ParseWorkload(*wl)
	if err != nil {
		return err
	}
	if *horizon < 0 {
		return fmt.Errorf("-horizon must be >= 0, got %v", *horizon)
	}

	cl := mutiny.NewCluster(mutiny.ClusterConfig{Seed: *seed})
	if *events {
		observer := cl.Client("observer")
		show := func(ev apiserver.WatchEvent) {
			meta := ev.Object.Meta()
			fmt.Printf("%8s  %-8s %-11s %s/%s\n",
				cl.Loop.Now().Truncate(time.Millisecond), ev.Type, ev.Kind, meta.Namespace, meta.Name)
		}
		for _, k := range spec.Kinds() {
			observer.Watch(k, show)
		}
	}
	cl.Start()
	if !cl.AwaitSettled(30 * time.Second) {
		return fmt.Errorf("cluster did not settle")
	}
	fmt.Printf("--- cluster settled at %v; running %q workload ---\n", cl.Loop.Now(), kind)

	driver := mutiny.NewDriver(cl, kind)
	driver.Setup()
	driver.Run()
	cl.Loop.RunUntil(cl.Loop.Now() + *horizon)

	fmt.Printf("--- final state at %v ---\n", cl.Loop.Now())
	admin := cl.Client("admin")
	for _, no := range admin.List(spec.KindNode, "") {
		node := no.(*spec.Node)
		fmt.Printf("node %-10s ready=%-5v taints=%v routes=%v\n",
			node.Metadata.Name, node.Status.Ready, node.Spec.Taints, cl.Net.RoutesUp(node.Metadata.Name))
	}
	for _, do := range admin.List(spec.KindDeployment, "") {
		d := do.(*spec.Deployment)
		fmt.Printf("deployment %s/%-12s replicas=%d ready=%d\n",
			d.Metadata.Namespace, d.Metadata.Name, d.Spec.Replicas, d.Status.ReadyReplicas)
	}
	fmt.Printf("control plane responsive: %v; DNS healthy: %v\n",
		cl.ControlPlaneResponsive(), cl.Net.DNSHealthy())
	return nil
}
