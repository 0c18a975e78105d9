package policy

import (
	"mtm/internal/profiler"
	"mtm/internal/sim"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// Static places every page by one Placement and never migrates.
type Static struct {
	label string
	order Placement
}

// NewFirstTouch returns the first-touch NUMA baseline: pages are
// allocated on the fastest tier (from the faulting thread's view) with
// free space.
func NewFirstTouch() *Static { return &Static{"first-touch NUMA", PlaceFastFirst} }

// NewSlowFirst returns the slow-local-first baseline, the "slow tier
// first" initial-placement arm of Table 4.
func NewSlowFirst() *Static { return &Static{"slow-tier-first (no migration)", PlaceSlowLocalFirst} }

func (s *Static) Name() string { return s.label }

func (s *Static) Place(e *sim.Engine, v *vm.VMA, _ int, socket int) tier.NodeID {
	return s.PlaceRun(e, v, socket)
}

func (s *Static) PlaceRun(e *sim.Engine, v *vm.VMA, socket int) tier.NodeID {
	return place(e, v, socket, s.order)
}

func (*Static) IntervalStart(*sim.Engine) {}
func (*Static) IntervalEnd(*sim.Engine)   {}

// ProfileOnly runs a bare profiler under first-touch placement and never
// migrates, so profiling quality can be measured in isolation (Figures 1
// and 6).
type ProfileOnly struct {
	profiled
}

// NewProfileOnly returns the profile-only solution over p.
func NewProfileOnly(p profiler.Profiler) *ProfileOnly { return &ProfileOnly{profiled{p}} }

func (s *ProfileOnly) Name() string { return s.Prof.Name() }

func (s *ProfileOnly) Place(e *sim.Engine, v *vm.VMA, _ int, socket int) tier.NodeID {
	return s.PlaceRun(e, v, socket)
}

func (s *ProfileOnly) PlaceRun(e *sim.Engine, v *vm.VMA, socket int) tier.NodeID {
	return place(e, v, socket, PlaceFastFirst)
}

func (s *ProfileOnly) IntervalEnd(e *sim.Engine) { s.Prof.Profile(e) }
