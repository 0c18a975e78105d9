//go:build race

package sim

// RaceEnabled reports whether the binary was built with the race
// detector. Heavyweight tests trim themselves under -race: the golden
// digests run each variant's gups/mtm and pingpong/mtm only, the ref
// stream pin skips, the lineage tests keep fewer solutions and the Zipf
// sampler checks draw a small sample. The detector's ~10x slowdown adds
// nothing to checks a separate CI job runs at full size, while the
// race-relevant code paths are still exercised by the trimmed subset.
const RaceEnabled = true
