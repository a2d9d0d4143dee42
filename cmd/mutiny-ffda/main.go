// Command mutiny-ffda prints the field failure data analysis of §III: the
// Table I fault→error→failure chain over the 81 reconstructed real-world
// incidents, the aggregate statistics behind findings F3/F4, and the
// Table VII comparison of what Mutiny can replicate.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	mutiny "github.com/mutiny-sim/mutiny"
	"github.com/mutiny-sim/mutiny/internal/ffda"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mutiny-ffda:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mutiny-ffda", flag.ContinueOnError)
	listIncidents := fs.Bool("incidents", false, "list every incident in the dataset")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		// Flag parsing stops at the first positional argument: everything after
		// a stray word (a flag missing its dash) would be silently ignored.
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	mutiny.RenderTable1(os.Stdout)
	fmt.Println()

	fmt.Println("Aggregate statistics (§III-B):")
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "misconfiguration-caused failures\t%d\t(19 k8s / 3 plugin / 11 external)\n", len(ffda.Misconfigurations()))
	fmt.Fprintf(tw, "bug-involved incidents\t%d\t(5 k8s / 4 external / 1 plugin / 3 custom)\n", len(ffda.BugIncidents()))
	fmt.Fprintf(tw, "capacity-related failures\t%d\t(%d control-plane overloads)\n", len(ffda.CapacityIncidents()), len(ffda.ControlPlaneOverloads()))
	fmt.Fprintf(tw, "communication-error incidents\t%d\t\n", len(ffda.CommunicationIncidents()))
	fmt.Fprintf(tw, "misconfig→overload incidents (F3)\t%d\tof 81\n", len(ffda.MisconfigOverloads()))
	fmt.Fprintf(tw, "cluster outages\t%d\t\n", ffda.CountByFailure()[ffda.FailureOut])
	tw.Flush()
	fmt.Println()

	mutiny.RenderTable7(os.Stdout)

	if *listIncidents {
		fmt.Println()
		tw = tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "ID\tFault\tError\tFailure\tTitle")
		for _, in := range ffda.Dataset() {
			fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\n", in.ID, in.Fault, in.Error, in.Failure, in.Title)
		}
		tw.Flush()
	}
	return nil
}
