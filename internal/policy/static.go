package policy

import (
	"mtm/internal/profiler"
	"mtm/internal/sim"
)

// Static places every page by one Placement and never migrates.
type Static struct {
	label string
	placement
}

// NewFirstTouch returns the first-touch NUMA baseline: pages are
// allocated on the fastest tier (from the faulting thread's view) with
// free space.
func NewFirstTouch() *Static { return &Static{"first-touch NUMA", PlaceFastFirst} }

// NewSlowFirst returns the slow-local-first baseline, the "slow tier
// first" initial-placement arm of Table 4.
func NewSlowFirst() *Static { return &Static{"slow-tier-first (no migration)", PlaceSlowLocalFirst} }

func (s *Static) Name() string { return s.label }

func (*Static) IntervalStart(*sim.Engine) {}
func (*Static) IntervalEnd(*sim.Engine)   {}

// ProfileOnly runs a bare profiler under first-touch placement and never
// migrates, so profiling quality can be measured in isolation (Figures 1
// and 6).
type ProfileOnly struct {
	profiled
	placement
}

// NewProfileOnly returns the profile-only solution over p.
func NewProfileOnly(p profiler.Profiler) *ProfileOnly {
	return &ProfileOnly{profiled{p}, PlaceFastFirst}
}

func (s *ProfileOnly) Name() string { return s.Prof.Name() }

func (s *ProfileOnly) IntervalEnd(e *sim.Engine) { s.Prof.Profile(e) }
