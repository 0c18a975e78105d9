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
	// Options maps non-positive values to the defaults, so a bad flag
	// would otherwise run silently at the default scale or length.
	if *scale <= 0 || *ops <= 0 || math.IsNaN(*ops) || math.IsInf(*ops, 0) {
		fmt.Fprintf(os.Stderr, "-scale and -ops must be positive and finite (have -scale %d -ops %v)\n", *scale, *ops)
		os.Exit(2)
	}
	o := experiments.Options{Scale: *scale, OpsFactor: *ops, Seed: *seed}

	ids := experiments.Names()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		run, ok := experiments.All[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; have %v\n", id, experiments.Names())
			os.Exit(2)
		}
		start := time.Now()
		fmt.Println(run(o))
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
