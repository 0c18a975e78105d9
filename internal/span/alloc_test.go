//go:build !race

// The race detector's instrumentation allocates on paths that otherwise
// do not, so allocation counts are checked without it.

package span

import (
	"strings"
	"testing"
)

// TestEventAllocatesOnlyItsFields: a steady-state Event whose string
// attributes repeat earlier ones reuses their boxed values, and small
// integers box without allocating, so the Field slice is its one
// allocation.
func TestEventAllocatesOnlyItsFields(t *testing.T) {
	tr := New(Config{})
	node := strings.Repeat("DRAM", 2)[:5] // built at run time, like a node name
	event := func() {
		tr.Event("migration", "outcome", 0,
			S("verdict", "promoted-wasted"), S("rule", "fast-promotion"), S("admission", "unguarded"),
			S("vma", "bfs.csr"), I("page", 7), S("src", node), S("dst", "PM0"), I("lag_intervals", 3))
	}
	for range 1000 {
		event()
	}
	if got := testing.AllocsPerRun(1000, event); got != 1 {
		t.Errorf("Event allocates %v objects, want 1 (its Field slice)", got)
	}
}
