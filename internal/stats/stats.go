// Package stats scores and reports the paper's evaluation metrics:
// profiling recall and accuracy of a region table against a hot-page
// oracle (Figure 1), and the durations and fixed-width tables the
// experiments print. It reads no access counters itself; the oracle comes
// from the caller. Ground-truth counters are read by the fidelity oracle
// (internal/sim, internal/fidelity), the workloads' own hot sets, and the
// engine's lineage and emergency-reclaim bookkeeping — never by the
// PTE-scan profilers.
package stats

import (
	"fmt"
	"math/bits"
	"strings"
	"time"

	"mtm/internal/profiler"
	"mtm/internal/region"
	"mtm/internal/vm"
)

// HotOracle reports ground truth: whether a page is currently hot. The
// caller supplies it; GUPS exposes one from its hot-set bookkeeping.
type HotOracle func(v *vm.VMA, idx int) bool

// Quality is a profiling recall/accuracy measurement (Figure 1):
// recall   = hot bytes correctly detected / hot bytes in the oracle set
// accuracy = hot bytes correctly detected / bytes detected as hot
type Quality struct {
	Recall   float64
	Accuracy float64
}

// DetectionQuality labels the hottest regions (by WHI) covering wantBytes
// as the profiler's detected hot set and scores it against the oracle.
// oracleBytes is the oracle hot-set size (the denominator of recall).
func DetectionQuality(regions []*region.Region, oracle HotOracle, wantBytes, oracleBytes int64) Quality {
	detected := profiler.HotBytes(regions, wantBytes)
	var detectedBytes, correct int64
	for _, r := range detected {
		detectedBytes += int64(r.V.PresentCount(r.Start, r.End)) * r.V.PageSize
		for w := r.Start / vm.WordPages; w*vm.WordPages < r.End; w++ {
			word := r.V.PresentRangeWord(w, r.Start, r.End)
			for word != 0 {
				i := w*vm.WordPages + bits.TrailingZeros64(word)
				word &= word - 1
				if oracle(r.V, i) {
					correct += r.V.PageSize
				}
			}
		}
	}
	var q Quality
	if oracleBytes > 0 {
		q.Recall = float64(correct) / float64(oracleBytes)
	}
	if detectedBytes > 0 {
		q.Accuracy = float64(correct) / float64(detectedBytes)
	}
	return q
}

// FormatDuration renders a virtual duration at a unit that keeps three
// significant figures readable.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
	return d.String()
}

// Table is a minimal fixed-width text table writer for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are formatted with %v. A row with more cells
// than the header has columns panics.
func (t *Table) Row(cells ...interface{}) {
	if len(cells) > len(t.header) {
		panic(fmt.Sprintf("stats: table row has %d cells, header has %d", len(cells), len(t.header)))
	}
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = FormatDuration(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	width := make([]int, len(t.header))
	for _, r := range append([][]string{t.header}, t.rows...) {
		for i, c := range r {
			width[i] = max(width[i], len(c))
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
