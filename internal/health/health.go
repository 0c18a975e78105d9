// Package health implements the deterministic tier-health subsystem: a
// per-node state machine (Online → Degraded → Draining → Offline) driven
// by uncorrectable memory errors and migration failures, and a per
// tier-pair circuit breaker that stops the migration planner from
// hammering a destination that keeps aborting transfers.
//
// The package is pure bookkeeping on virtual time: it draws no
// randomness and reads no clocks, so a given sequence of inputs always
// produces the same transitions regardless of host scheduling. The
// simulation engine owns the inputs (poisoned-page events, abort
// records, the virtual now) and applies the outputs (capacity changes,
// drains, provenance events).
package health

import (
	"errors"
	"time"
)

// ErrNoDestination is returned (wrapped) when a draining tier has live
// pages but no healthy destination with capacity can be found for them;
// the pages stay in place and the drain retries next interval.
var ErrNoDestination = errors.New("health: no drain destination with capacity")

// State is the health of one memory tier. States only move forward
// except Degraded, which recovers to Online after a quiet period;
// Draining and Offline are one-way (a dead DIMM does not come back).
type State uint8

const (
	// StateOnline is a healthy tier.
	StateOnline State = iota
	// StateDegraded is a tier that has thrown memory errors or tripped a
	// migration breaker recently but is still accepting pages.
	StateDegraded
	// StateDraining is a tier being evacuated: no new allocations, live
	// pages move out a bounded batch per interval.
	StateDraining
	// StateOffline is a fully evacuated tier with zero usable capacity.
	StateOffline
)

func (s State) String() string {
	switch s {
	case StateOnline:
		return "Online"
	case StateDegraded:
		return "Degraded"
	case StateDraining:
		return "Draining"
	case StateOffline:
		return "Offline"
	}
	return "Unknown"
}

// Thresholds of the health state machine and the migration circuit
// breaker. The breaker's cool-down is not among them: the engine derives
// it from the profiling interval (twice its length).
const (
	// DegradedAfter is the cumulative poisoned-page count that moves a
	// tier Online → Degraded: the first uncorrectable error puts the tier
	// under watch, like the kernel's CEC threshold.
	DegradedAfter = 1
	// DrainAfter is the cumulative poisoned-page count that moves a tier
	// to Draining.
	DrainAfter = 8
	// RecoverAfter is the number of consecutive quiet intervals (no new
	// poison, no open breaker into the tier) after which a Degraded tier
	// returns to Online.
	RecoverAfter = 4
	// DrainPagesPerInterval bounds how many pages one drain step may
	// attempt, keeping the background evacuation incremental.
	DrainPagesPerInterval = 128
	// RecoveryPenalty is the app-visible cost of touching a poisoned
	// page: the machine-check + SIGBUS-handler round trip before the
	// page is refaulted onto a healthy tier.
	RecoveryPenalty = 250 * time.Microsecond
	// TripAborts is the number of consecutive aborted migrations on one
	// (src, dst) tier pair that trips that pair's breaker.
	TripAborts = 3
)

// Transition records one health state change for provenance.
type Transition struct {
	Node     int
	From, To State
	Interval int
	Reason   string
}

// Tracker is the per-node health state machine.
type Tracker struct {
	state    []State
	poisoned []int // cumulative poisoned pages per node
	lastBad  []int // last interval with new poison or an open breaker
}

// NewTracker creates a Tracker for nodes tiers, all Online.
func NewTracker(nodes int) *Tracker {
	t := &Tracker{
		state:    make([]State, nodes),
		poisoned: make([]int, nodes),
		lastBad:  make([]int, nodes),
	}
	for i := range t.lastBad {
		t.lastBad[i] = -1
	}
	return t
}

// State returns the current health of node n.
func (t *Tracker) State(n int) State { return t.state[n] }

// PoisonedPages returns the cumulative poisoned-page count of node n.
func (t *Tracker) PoisonedPages(n int) int { return t.poisoned[n] }

// set moves node n to state to, appending the transition.
func (t *Tracker) set(n int, to State, interval int, reason string, out []Transition) []Transition {
	out = append(out, Transition{Node: n, From: t.state[n], To: to, Interval: interval, Reason: reason})
	t.state[n] = to
	return out
}

// Poison records pages newly poisoned pages on node n during interval,
// returning any transitions the errors caused. Crossing both thresholds
// at once yields both steps (Online→Degraded, Degraded→Draining) so the
// provenance trail never skips a state.
func (t *Tracker) Poison(n, pages, interval int) []Transition {
	if pages <= 0 {
		return nil
	}
	t.poisoned[n] += pages
	t.lastBad[n] = interval
	var out []Transition
	if t.state[n] == StateOnline && t.poisoned[n] >= DegradedAfter {
		out = t.set(n, StateDegraded, interval, "mem-error threshold", out)
	}
	if t.state[n] == StateDegraded && t.poisoned[n] >= DrainAfter {
		out = t.set(n, StateDraining, interval, "poisoned-pages drain threshold", out)
	}
	return out
}

// BeginInterval advances the quiet-period bookkeeping at the start of
// interval. breakerOpenInto reports whether any migration breaker into
// the given node is currently open; an open breaker degrades an Online
// node and keeps a Degraded node from recovering.
func (t *Tracker) BeginInterval(interval int, breakerOpenInto func(int) bool) []Transition {
	var out []Transition
	for n := range t.state {
		open := breakerOpenInto != nil && breakerOpenInto(n)
		if open {
			t.lastBad[n] = interval
		}
		switch t.state[n] {
		case StateOnline:
			if open {
				out = t.set(n, StateDegraded, interval, "migration breaker open", out)
			}
		case StateDegraded:
			if !open && t.lastBad[n] >= 0 && interval-t.lastBad[n] >= RecoverAfter {
				out = t.set(n, StateOnline, interval, "quiet period elapsed", out)
			}
		}
	}
	return out
}

// DrainedEmpty records that draining node n holds no more live pages,
// completing the evacuation: the tier goes Offline.
func (t *Tracker) DrainedEmpty(n, interval int) []Transition {
	if t.state[n] != StateDraining {
		return nil
	}
	return t.set(n, StateOffline, interval, "evacuation complete", nil)
}

// ForceDraining moves node n straight to Draining (operator-initiated
// offlining), stepping through Degraded so the trail stays monotone.
func (t *Tracker) ForceDraining(n, interval int) []Transition {
	var out []Transition
	if t.state[n] == StateOnline {
		out = t.set(n, StateDegraded, interval, "operator drain request", out)
	}
	if t.state[n] == StateDegraded {
		out = t.set(n, StateDraining, interval, "operator drain request", out)
	}
	return out
}

// Draining returns the nodes currently in StateDraining, in node order.
func (t *Tracker) Draining() []int {
	var out []int
	for n, s := range t.state {
		if s == StateDraining {
			out = append(out, n)
		}
	}
	return out
}
