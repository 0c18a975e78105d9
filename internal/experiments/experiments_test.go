package experiments

import "testing"

// TestNamesMatchAll: Names and All are kept by hand, so an id missing from
// Names is skipped by `-exp all` and one missing from All is rejected by
// `-exp <id>`. Both must list the same ids, Names each exactly once.
func TestNamesMatchAll(t *testing.T) {
	names := Names()
	seen := make(map[string]bool, len(names))
	for _, id := range names {
		if seen[id] {
			t.Errorf("Names lists %q twice", id)
		}
		seen[id] = true
		if All[id] == nil {
			t.Errorf("Names lists %q, which All has no driver for", id)
		}
	}
	for id := range All {
		if !seen[id] {
			t.Errorf("All has a driver for %q, which Names does not list", id)
		}
	}
}
