// Command bench is the repository benchmark: five closed-loop campaign
// workloads driven through the public campaign.Runner API, seven end-to-end
// metrics per workload, every outcome checked against committed golden
// outcomes, and a separate traced run that attributes the cost of an
// experiment to the layers. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// errOutcomeMismatch is returned, after the result line is printed, by a run
// whose experiments did not all reproduce the golden outcomes.
var errOutcomeMismatch = errors.New("experiment outcomes differ from the golden outcomes")

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload     string
	seed         int64
	seconds      int
	trace        int
	updateGolden bool
	selfcheck    bool
	runs         int
}

func run(args []string) error {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all five, one child process each)")
	fs.Int64Var(&o.seed, "seed", 1, "benchmark seed: permutes the order in which the spec list is executed")
	fs.IntVar(&o.seconds, "seconds", 16, "measuring time of a run; the number of passes follows from it and is never below 10")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: spans, boundary counts, CPU profile and layer drivers instead of the end-to-end metrics")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "rewrite bench/golden/<list>.txt from this run's outcomes (start from the repository root)")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the suite as two back-to-back sets and hold their medians and spreads against the bounds")
	fs.IntVar(&o.runs, "runs", 10, "with -selfcheck: runs per workload in each set, each with its own seed (at least 4, for the quartiles)")
	kernel := fs.Bool("kernel", false, "internal: serve calibration slices on standard input and output (calibrate.go)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 || o.runs < 1 {
		return errors.New("-seconds and -runs must be positive")
	}

	switch {
	case *kernel:
		return kernelMain()
	case o.selfcheck:
		if o.runs < 4 {
			return errors.New("-selfcheck needs -runs of at least 4: quartiles of fewer runs mean little")
		}
		return selfcheck(o)
	case o.workload != "":
		return runWorkload(o)
	}
	// Every workload in a process of its own, so that peak_rss_mb and the
	// warm state of the intern tables belong to one workload.
	var failed error
	for i := range workloads {
		child := o
		child.workload = workloads[i].name
		if _, err := runChild(child, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", child.workload, err)
			failed = errors.New("one or more workloads failed")
		}
	}
	return failed
}

// runWorkload measures one workload in this process and prints the result
// object as the last line of standard output.
func runWorkload(o options) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	var res result
	var err error
	if o.trace == 1 {
		res, err = measureTraced(w, o.seed, os.Stdout)
	} else {
		res, err = measureEndToEnd(w, o.seed, o.seconds, o.updateGolden, os.Stdout)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errOutcomeMismatch
	}
	return nil
}

// runChild runs one workload in a child process of this binary, copies its
// report to out, and returns the result object of its last line. The child
// has ended when runChild returns.
func runChild(o options, out io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, fmt.Errorf("locating own binary: %w", err)
	}
	args := []string{
		"-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(o.trace),
	}
	if o.updateGolden {
		args = append(args, "-update-golden")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()

	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return result{}, runErr
		}
		return result{}, fmt.Errorf("child printed no result: %w", err)
	}
	return res, runErr
}
