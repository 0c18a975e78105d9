package experiments

import "testing"

// TestAllIDsUnique: Find returns the first experiment with an id, so a
// second one with the same id would never run alone.
func TestAllIDsUnique(t *testing.T) {
	seen := make(map[string]bool, len(All))
	for _, e := range All {
		if seen[e.ID] {
			t.Errorf("All lists %q twice", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestOptionsTakenAsGiven: every Options field reaches the run's config,
// seed 0 included.
func TestOptionsTakenAsGiven(t *testing.T) {
	c := Options{Scale: 256, OpsFactor: 0.1, Seed: 0}.config()
	if c.Scale != 256 || c.OpsFactor != 0.1 || c.Seed != 0 {
		t.Fatalf("Options{Scale: 256, OpsFactor: 0.1, Seed: 0} ran -scale %d -ops %v -seed %d", c.Scale, c.OpsFactor, c.Seed)
	}
}
