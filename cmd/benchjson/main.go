// Command benchjson turns `go test -bench` text output into a JSON
// summary and gates CI on benchmark regressions.
//
// Parse mode (default) reads benchmark output on stdin (or -in) and
// writes a summary:
//
//	go test -bench ProfilePass -benchtime=3x -benchmem -count=3 | benchjson -out BENCH_ci.json
//
// Each benchmark keeps the MINIMUM ns/op across its -count repetitions —
// the least-noisy estimate of the true cost.
//
// Compare mode gates a current summary against a checked-in baseline:
//
//	benchjson -current BENCH_ci.json -baseline BENCH_baseline.json -max-allocs BenchmarkScanSteady=0
//
// It prints each benchmark's ns/op drift against the baseline for the
// log; ns/op itself never fails the gate, because raw timings do not
// compare across differently-fast runners. The gate fails (exit 1) when:
//
//   - the diff against the baseline is not symmetric: benchmarks present
//     in the run but absent from the baseline, and stale baseline entries
//     naming benchmarks the run no longer has, both mean the checked-in
//     baseline needs regenerating;
//   - a baseline entry has a zero ns/op (a corrupt or hand-edited file);
//   - -max-allocs name=N[,name=N...] caps allocs/op of the named
//     benchmarks (requires -benchmem output) and one exceeds its cap; the
//     zero-allocation scan-steady contract is enforced with
//     BenchmarkScanSteady=0.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Summary is the checked-in benchmark baseline / CI artifact layout.
type Summary struct {
	// Benchmarks maps the benchmark name (GOMAXPROCS suffix stripped) to
	// its minimum ns/op across repetitions.
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// Entry is one benchmark's summary.
type Entry struct {
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp comes from -benchmem output (the minimum-ns/op line);
	// compared only by the -max-allocs gate.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	Runs        int     `json:"runs"`
}

// benchLine matches one `go test -bench` result line, with or without the
// -benchmem columns, e.g. "BenchmarkProfilePass-4   3   311262 ns/op
// 1024 B/op   12 allocs/op". The -N suffix is go's GOMAXPROCS tag, not
// part of the benchmark's identity.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

func parse(r io.Reader) (*Summary, error) {
	s := &Summary{Benchmarks: map[string]Entry{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad ns/op in %q: %v", sc.Text(), err)
		}
		e := s.Benchmarks[m[1]]
		if e.Runs == 0 || ns < e.NsPerOp {
			e.NsPerOp = ns
			// Keep the allocs figure from the same (min ns/op) line so
			// the two columns describe one run.
			e.AllocsPerOp = 0
			if m[5] != "" {
				if a, err := strconv.ParseFloat(m[5], 64); err == nil {
					e.AllocsPerOp = a
				}
			}
		}
		e.Runs++
		s.Benchmarks[m[1]] = e
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchjson: no benchmark lines found in input")
	}
	return s, nil
}

// parseMaxAllocs parses the -max-allocs spec "name=limit[,name=limit...]".
func parseMaxAllocs(spec string) (map[string]float64, error) {
	if spec == "" {
		return nil, nil
	}
	caps := map[string]float64{}
	for _, part := range strings.Split(spec, ",") {
		name, limit, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("benchjson: -max-allocs entry %q is not name=limit", part)
		}
		v, err := strconv.ParseFloat(limit, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("benchjson: -max-allocs limit in %q: want a non-negative number", part)
		}
		caps[name] = v
	}
	return caps, nil
}

func load(path string) (*Summary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Summary
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %v", path, err)
	}
	return &s, nil
}

func write(path string, s *Summary) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "" || path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func compare(cur, base *Summary, maxAllocs map[string]float64) error {
	names := make([]string, 0, len(cur.Benchmarks))
	for n := range cur.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	// A stale or hand-edited baseline must fail the gate with a clear
	// message, not divide by zero or silently skip the comparison.
	var missing, zero []string
	for _, n := range names {
		b, ok := base.Benchmarks[n]
		switch {
		case !ok:
			missing = append(missing, n)
		case b.NsPerOp <= 0:
			zero = append(zero, n)
		default:
			c := cur.Benchmarks[n]
			fmt.Printf("  %-40s current=%12.0f ns/op baseline=%12.0f ns/op (%+.1f%%)",
				n, c.NsPerOp, b.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1))
			if c.AllocsPerOp > 0 {
				// Informational only; baselines without -benchmem data
				// still gate cleanly.
				fmt.Printf(" allocs=%.0f/op", c.AllocsPerOp)
			}
			fmt.Println()
		}
	}
	// The reverse direction matters too: baseline entries for benchmarks
	// the current run no longer produces mean the benchmark was renamed
	// or deleted without regenerating the baseline. Silently ignoring
	// them would let the checked-in file rot.
	var stale []string
	for n := range base.Benchmarks {
		if _, ok := cur.Benchmarks[n]; !ok {
			stale = append(stale, n)
		}
	}
	sort.Strings(stale)
	if len(missing) > 0 {
		return fmt.Errorf("baseline lacks benchmark(s) %v present in the current run; regenerate it with `go test -bench ... | benchjson -out BENCH_baseline.json`", missing)
	}
	if len(stale) > 0 {
		return fmt.Errorf("baseline names benchmark(s) %v that the current run did not produce; the benchmark was renamed or removed — regenerate the baseline", stale)
	}
	if len(zero) > 0 {
		return fmt.Errorf("baseline has zero/missing ns/op for benchmark(s) %v; the baseline file is corrupt or hand-edited — regenerate it", zero)
	}
	allocNames := make([]string, 0, len(maxAllocs))
	for n := range maxAllocs {
		allocNames = append(allocNames, n)
	}
	sort.Strings(allocNames)
	for _, n := range allocNames {
		c, ok := cur.Benchmarks[n]
		if !ok {
			return fmt.Errorf("-max-allocs names %s but the current summary lacks it", n)
		}
		fmt.Printf("  %-40s allocs=%.0f/op (cap %.0f)\n", n, c.AllocsPerOp, maxAllocs[n])
		if c.AllocsPerOp > maxAllocs[n] {
			return fmt.Errorf("%s allocates %.0f objects/op, cap is %.0f", n, c.AllocsPerOp, maxAllocs[n])
		}
	}
	return nil
}

func main() {
	var (
		in        = flag.String("in", "", "benchmark text to parse (default stdin)")
		out       = flag.String("out", "-", "where to write the JSON summary")
		current   = flag.String("current", "", "compare mode: current summary JSON")
		baseline  = flag.String("baseline", "", "compare mode: baseline summary JSON")
		allocSpec = flag.String("max-allocs", "", "allocs/op caps as name=limit[,name=limit...]")
	)
	flag.Parse()

	if (*current == "") != (*baseline == "") {
		fmt.Fprintln(os.Stderr, "benchjson: -current and -baseline must be given together")
		os.Exit(2)
	}
	maxAllocs, err := parseMaxAllocs(*allocSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *current != "" {
		cur, err := load(*current)
		if err == nil {
			var base *Summary
			base, err = load(*baseline)
			if err == nil {
				err = compare(cur, base, maxAllocs)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Println("benchmark gate passed")
		return
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	s, err := parse(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := write(*out, s); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
