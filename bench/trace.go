package main

import (
	"time"

	"mtm"
	"mtm/internal/migrate"
	"mtm/internal/policy"
	"mtm/internal/profiler"
	"mtm/internal/region"
	"mtm/internal/sim"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// hostSpan is one host-time interval of a traced simulation, in ns since
// the simulation started. Parent is the index of the enclosing span, -1 at
// top level.
type hostSpan struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

// tracer records host-time spans at the layer boundaries of one traced
// simulation and counts the calls crossing them. Top-level spans are
// setup, one "interval" root per profiling interval, audit and export.
// Under a root sit the workload's RunInterval, the solution's
// IntervalStart/IntervalEnd (with profiler and migrate calls below them),
// and "engine": the gap from IntervalEnd's return to the next
// IntervalStart, or to the end of sim.Run. Its methods are no-ops on a
// nil tracer, which is how untraced simulations run.
type tracer struct {
	t0      time.Time
	spans   []hostSpan
	open    int32 // innermost open span, -1 at top level
	gapFrom int64 // start of the pending engine gap
	ended   bool  // the open interval root has seen IntervalEnd

	accessCalls   int64 // Engine.Observer calls
	initCalls     int64 // Observer calls made during set-up
	initAccesses  int64 // simulated accesses made during set-up
	placeCalls    int64
	profilePasses int64
	migrateCalls  int64
	migrateBytes  int64
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) push(name string, at int64) {
	id := int32(len(t.spans))
	t.spans = append(t.spans, hostSpan{ID: id, Name: name, Start: at, Parent: t.open})
	t.open = id
}

func (t *tracer) pop(at int64) {
	s := &t.spans[t.open]
	s.End = at
	t.open = s.Parent
}

func (t *tracer) enter(name string) {
	if t != nil {
		t.push(name, t.now())
	}
}

func (t *tracer) leave() {
	if t != nil {
		t.pop(t.now())
	}
}

// initDone ends the set-up span and opens the first interval root.
func (t *tracer) initDone(e *sim.Engine) {
	if t == nil {
		return
	}
	now := t.now()
	t.pop(now)
	t.initCalls = t.accessCalls
	t.initAccesses = e.TotalAccesses
	t.push("interval", now)
	t.gapFrom = now
}

// closeGap records the engine's bookkeeping since gapFrom under the open
// interval root.
func (t *tracer) closeGap(now int64) {
	t.spans = append(t.spans, hostSpan{ID: int32(len(t.spans)), Name: "engine", Start: t.gapFrom, End: now, Parent: t.open})
}

// intervalStart runs as the solution's IntervalStart is entered: it ends
// the engine gap and, after the first interval, moves on to a new root.
func (t *tracer) intervalStart(now int64) {
	t.closeGap(now)
	if t.ended {
		t.pop(now)
		t.push("interval", now)
		t.ended = false
	}
}

// finishIntervals closes the last engine gap and root when sim.Run returns.
func (t *tracer) finishIntervals() {
	if t == nil {
		return
	}
	now := t.now()
	t.closeGap(now)
	t.pop(now)
}

func (t *tracer) observe(*vm.VMA, int, uint32, uint32, int) { t.accessCalls++ }

// wrapSolution puts the profiler and mechanism of an MTM or Nomad
// solution behind timing decorators and returns the solution behind one.
func (t *tracer) wrapSolution(s sim.Solution) sim.Solution {
	var p *policy.MTM
	switch v := s.(type) {
	case *policy.MTM:
		p = v
	case *policy.Nomad:
		p = &v.MTM
	}
	if p != nil {
		p.Prof = &timedProfiler{Profiler: p.Prof, t: t}
		p.Mech = &timedMechanism{Mechanism: p.Mech, t: t}
	}
	return &tracedSolution{Solution: s, t: t}
}

type tracedSolution struct {
	sim.Solution
	t *tracer
}

func (s *tracedSolution) Place(e *sim.Engine, v *vm.VMA, idx int, socket int) tier.NodeID {
	s.t.placeCalls++
	return s.Solution.Place(e, v, idx, socket)
}

func (s *tracedSolution) IntervalStart(e *sim.Engine) {
	now := s.t.now()
	s.t.intervalStart(now)
	s.t.push("solution.start", now)
	s.Solution.IntervalStart(e)
	s.t.leave()
}

func (s *tracedSolution) IntervalEnd(e *sim.Engine) {
	s.t.enter("solution.end")
	s.Solution.IntervalEnd(e)
	now := s.t.now()
	s.t.pop(now)
	s.t.ended = true
	s.t.gapFrom = now
}

// Regions forwards the region table the fidelity oracle grades; a
// solution without one yields nil, which the oracle treats the same way.
func (s *tracedSolution) Regions() []*region.Region {
	if r, ok := s.Solution.(interface{ Regions() []*region.Region }); ok {
		return r.Regions()
	}
	return nil
}

type timedProfiler struct {
	profiler.Profiler
	t *tracer
}

func (p *timedProfiler) Attach(e *sim.Engine) {
	p.t.enter("profiler")
	p.Profiler.Attach(e)
	p.t.leave()
}

func (p *timedProfiler) IntervalStart(e *sim.Engine) {
	p.t.enter("profiler")
	p.Profiler.IntervalStart(e)
	p.t.leave()
}

func (p *timedProfiler) Profile(e *sim.Engine) {
	p.t.enter("profiler")
	p.Profiler.Profile(e)
	p.t.leave()
	p.t.profilePasses++
}

type timedMechanism struct {
	migrate.Mechanism
	t *tracer
}

func (m *timedMechanism) Migrate(e *sim.Engine, v *vm.VMA, start, end int, dst tier.NodeID, maxPages int) migrate.Report {
	m.t.enter("migrate")
	rep := m.Mechanism.Migrate(e, v, start, end, dst, maxPages)
	m.t.leave()
	m.t.migrateCalls++
	m.t.migrateBytes += rep.Bytes
	return rep
}

// selfTimes returns each span name's summed self time: its duration minus
// the part its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// layerSpans maps each layer to the spans whose self time it owns. Self
// time left in the interval roots, and host time between top-level spans,
// is unattributed.
var layerSpans = []struct {
	layer string
	spans []string
}{
	{"setup", []string{"setup"}},
	{"access", []string{"workload"}},
	{"policy", []string{"solution.start", "solution.end"}},
	{"profiler", []string{"profiler"}},
	{"migrate", []string{"migrate"}},
	{"engine", []string{"engine"}},
	{"audit", []string{"audit"}},
	{"export", []string{"export"}},
}

// layerSeconds returns each layer's self time in seconds, plus
// "unattributed": wall minus every layer.
func (t *tracer) layerSeconds(wall float64) map[string]float64 {
	self := t.selfTimes()
	out := make(map[string]float64, len(layerSpans)+1)
	rest := wall
	for _, l := range layerSpans {
		var d time.Duration
		for _, name := range l.spans {
			d += self[name]
		}
		out[l.layer] = d.Seconds()
		rest -= d.Seconds()
	}
	out["unattributed"] = rest
	return out
}

// intervalMS returns the host duration of every interval root in ms.
func (t *tracer) intervalMS() []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == "interval" {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// layerMetrics derives the per-layer metrics of one traced simulation
// that do not need other simulations to compare against.
func (t *tracer) layerMetrics(s sample, res *mtm.Result, e *sim.Engine, liveHeap, exportBytes int64) map[string]float64 {
	wall := s.WallS
	ls := t.layerSeconds(wall)
	intervals := float64(res.Intervals)
	calls := float64(t.accessCalls - t.initCalls)
	var pages int64
	for _, v := range e.AS.VMAs() {
		pages += int64(v.NPages)
	}
	const mb = 1 << 20
	return map[string]float64{
		"access.s":               ls["access"],
		"access.share":           ls["access"] / wall,
		"access.ns_per_access":   ratio(ls["access"]*1e9, float64(res.TotalAccesses-t.initAccesses)),
		"access.calls":           calls,
		"access.ns_per_call":     ratio(ls["access"]*1e9, calls),
		"profiler.s":             ls["profiler"],
		"profiler.share":         ls["profiler"] / wall,
		"profiler.ms_per_pass":   ratio(ls["profiler"]*1e3, float64(t.profilePasses)),
		"migrate.s":              ls["migrate"],
		"migrate.share":          ls["migrate"] / wall,
		"migrate.calls":          float64(t.migrateCalls),
		"migrate.us_per_call":    ratio(ls["migrate"]*1e6, float64(t.migrateCalls)),
		"migrate.mb":             float64(t.migrateBytes) / mb,
		"policy.s":               ls["policy"],
		"policy.share":           ls["policy"] / wall,
		"policy.ms_per_interval": ratio(ls["policy"]*1e3, intervals),
		"engine.s":               ls["engine"],
		"engine.share":           ls["engine"] / wall,
		"engine.ms_per_interval": ratio(ls["engine"]*1e3, intervals),
		"place.calls":            float64(t.placeCalls),
		"setup.ns_per_page":      ratio(s.SetupS*1e9, float64(pages)),
		"vm.pages":               float64(pages),
		"vm.heap_bytes_per_page": ratio(float64(liveHeap), float64(pages)),
		"audit.s":                ls["audit"],
		"export.s":               ls["export"],
		"export.mb":              float64(exportBytes) / mb,
		"gc.cycles":              float64(s.GCCycles),
		"gc.pause_ms":            s.GCPauseMS,
		"alloc.mb":               s.AllocMB,
		"alloc.bytes_per_access": ratio(s.AllocMB*mb, float64(res.TotalAccesses)),
		"trace.unattributed_pct": 100 * ls["unattributed"] / wall,
		"sim.intervals":          intervals,
		"sim.accesses":           float64(res.TotalAccesses),
		"sim.exec_vs":            res.ExecTime.Seconds(),
		"sim.migrated_mb":        float64(res.MigratedBytes) / mb,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
