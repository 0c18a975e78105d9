// Command experiments regenerates the tables and figures of the MTM
// paper's evaluation (§9) on the simulated multi-tiered memory system.
//
// Usage:
//
//	experiments                 # run every experiment at quick settings
//	experiments -exp fig4       # run one experiment
//	experiments -full           # paper-equivalent run lengths (slower)
//	experiments -scale 64       # larger simulated machine
//
// Output is plain text, one section per figure/table, with the same rows
// and series the paper reports.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"mtm/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body: flags in, report out, exit code
// returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp   = fs.String("exp", "all", "experiment id (fig1..fig12, tab3..tab7, or 'all')")
		scale = fs.Int64("scale", 256, "machine scale divisor (64 = ~27GB simulated machine)")
		ops   = fs.Float64("ops", 0.5, "workload length factor (1.0 = paper-equivalent)")
		full  = fs.Bool("full", false, "shorthand for -ops 1.0")
		seed  = fs.Int64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Flag parsing stops at the first non-flag argument, so a flag after
	// it (experiments fig3 -exp tab5) would be dropped without a word.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "experiments: unexpected argument %q (select experiments with -exp)\n", fs.Arg(0))
		return 2
	}
	if *full {
		*ops = 1.0
	}
	// Options takes every value as given, and a non-positive scale or
	// length would run at mtm's defaults instead.
	if *scale <= 0 || *ops <= 0 || math.IsNaN(*ops) || math.IsInf(*ops, 0) {
		fmt.Fprintf(stderr, "-scale and -ops must be positive and finite (have -scale %d -ops %v)\n", *scale, *ops)
		return 2
	}
	o := experiments.Options{Scale: *scale, OpsFactor: *ops, Seed: *seed}

	exps := experiments.All
	if *exp != "all" {
		exps = nil
		for _, id := range strings.Split(*exp, ",") {
			e, ok := experiments.Find(id)
			if !ok {
				fmt.Fprintf(stderr, "unknown experiment %q; have", id)
				for _, known := range experiments.All {
					fmt.Fprint(stderr, " ", known.ID)
				}
				fmt.Fprintln(stderr)
				return 2
			}
			exps = append(exps, e)
		}
	}
	for _, e := range exps {
		start := time.Now()
		fmt.Fprintln(stdout, e.Run(o))
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
