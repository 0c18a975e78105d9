// Command promlint validates a Prometheus text exposition file (the
// output of mtmsim -metrics-format prom). CI runs it on a freshly
// generated export; exit 0 means the file parses.
//
// Usage:
//
//	promlint out.prom
//	mtmsim -metrics /dev/stdout -metrics-format prom ... | promlint
package main

import (
	"fmt"
	"io"
	"os"

	"mtm/internal/promlint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body: it lints the named file, or standard
// input without one, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 1 {
		fmt.Fprintln(stderr, "usage: promlint [file.prom]")
		return 2
	}
	var r io.Reader = os.Stdin
	name := "<stdin>"
	if len(args) == 1 {
		f, err := os.Open(args[0])
		if err != nil {
			fmt.Fprintln(stderr, "promlint:", err)
			return 1
		}
		defer f.Close()
		r = f
		name = args[0]
	}
	if err := promlint.Lint(r); err != nil {
		fmt.Fprintf(stderr, "promlint: %s: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(stdout, "promlint: %s OK\n", name)
	return 0
}
