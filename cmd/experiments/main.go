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
	"math"
	"os"
	"strings"
	"time"

	"mtm/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id (fig1..fig12, tab3..tab7, or 'all')")
		scale = flag.Int64("scale", 256, "machine scale divisor (64 = ~27GB simulated machine)")
		ops   = flag.Float64("ops", 0.5, "workload length factor (1.0 = paper-equivalent)")
		full  = flag.Bool("full", false, "shorthand for -ops 1.0")
		seed  = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()
	if *full {
		*ops = 1.0
	}
	// Options takes every value as given, and a non-positive scale or
	// length would run at mtm's defaults instead.
	if *scale <= 0 || *ops <= 0 || math.IsNaN(*ops) || math.IsInf(*ops, 0) {
		fmt.Fprintf(os.Stderr, "-scale and -ops must be positive and finite (have -scale %d -ops %v)\n", *scale, *ops)
		os.Exit(2)
	}
	o := experiments.Options{Scale: *scale, OpsFactor: *ops, Seed: *seed}

	exps := experiments.All
	if *exp != "all" {
		exps = nil
		for _, id := range strings.Split(*exp, ",") {
			e, ok := experiments.Find(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; have", id)
				for _, known := range experiments.All {
					fmt.Fprint(os.Stderr, " ", known.ID)
				}
				fmt.Fprintln(os.Stderr)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}
	for _, e := range exps {
		start := time.Now()
		fmt.Println(e.Run(o))
		fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
