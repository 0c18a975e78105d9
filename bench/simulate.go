package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"time"

	"mtm"
	"mtm/internal/sim"
)

// sample is the host cost of one whole simulation.
type sample struct {
	Traced      bool    `json:"traced"`
	WallS       float64 `json:"wall_s"`
	SetupS      float64 `json:"setup_s"`
	MAccessPerS float64 `json:"maccess_per_s"`
	LiveHeapMB  float64 `json:"live_heap_mb"`
	GCCycles    uint32  `json:"gc_cycles"`
	GCPauseMS   float64 `json:"gc_pause_ms"`
	AllocMB     float64 `json:"alloc_mb"`
	Digest      string  `json:"digest"`
	Error       string  `json:"error,omitempty"`
	// Layers holds the per-layer metrics of a traced simulation.
	Layers map[string]float64 `json:"layers,omitempty"`

	heapProf   []byte     // with -memprofile: taken where LiveHeapMB was read
	spans      []hostSpan // traced only
	intervalMS []float64  // traced only: host time of each interval root
}

// simulate runs one simulation of sp built exactly as mtm.Run builds it,
// audits it, and encodes its Result (with any metrics and span exports it
// carries) into a SHA-256 digest. A traced simulation runs its layers
// behind the timing decorators of trace.go.
func simulate(sp spec, seed int64, traced, heapProfile bool) sample {
	cfg := sp.config(seed)
	// What the process holds before the simulation (earlier samples, the
	// runtime) is not the simulation's heap.
	base := settledLiveHeap()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	m := &meter{t0: time.Now()}
	if traced {
		m.tr = &tracer{t0: m.t0, open: -1}
		m.tr.enter("setup")
	}
	tr := m.tr
	e, w, s, err := build(sp, cfg, m)
	if err != nil {
		return sample{Traced: traced, Error: err.Error()}
	}
	res, runErr := sim.Run(e, w, s, mtm.MaxIntervals)
	tr.finishIntervals()
	tr.enter("audit")
	auditErr := e.Audit()
	tr.leave()
	tr.enter("export")
	digest, exportBytes, encErr := encode(res)
	tr.leave()
	wall := time.Since(m.t0)

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	// The engine is still reachable here, so the settled live heap, and a
	// heap profile taken now, hold everything the simulation keeps.
	live := int64(settledLiveHeap()) - int64(base)
	var prof bytes.Buffer
	if heapProfile {
		// Writing to a bytes.Buffer cannot fail.
		_ = pprof.WriteHeapProfile(&prof)
	}
	runtime.KeepAlive(e)

	out := sample{
		Traced:      traced,
		WallS:       wall.Seconds(),
		SetupS:      m.setup.Seconds(),
		MAccessPerS: float64(res.TotalAccesses) / wall.Seconds() / 1e6,
		LiveHeapMB:  float64(live) / (1 << 20),
		GCCycles:    ms1.NumGC - ms0.NumGC,
		GCPauseMS:   float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		AllocMB:     float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		Digest:      digest,
		heapProf:    prof.Bytes(),
	}
	if err := firstError(runErr, auditErr, encErr); err != nil {
		out.Error = err.Error()
	} else if !res.Completed || res.Truncated {
		out.Error = fmt.Sprintf("run did not complete (completed=%v truncated=%v after %d intervals)", res.Completed, res.Truncated, res.Intervals)
	}
	if tr != nil {
		out.Layers = tr.layerMetrics(out, res, e, live, exportBytes)
		out.spans = tr.spans
		out.intervalMS = tr.intervalMS()
	}
	return out
}

// build performs mtm.Run's construction steps, puts the workload behind
// the meter and, for a traced simulation, installs the timing decorators.
func build(sp spec, cfg mtm.Config, m *meter) (*sim.Engine, sim.Workload, sim.Solution, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	w, err := mtm.NewWorkload(sp.Workload, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := mtm.NewSolution(sp.Solution, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	e := mtm.NewEngine(cfg)
	e.AS.THP = sp.HugePages
	if tr := m.tr; tr != nil {
		e.Observer = tr.observe
		s = tr.wrapSolution(s)
	}
	return e, &meteredWorkload{Workload: w, m: m}, s, nil
}

// setUp times one set-up as a simulation performs it, from Config.Validate
// to the return of Workload.Init, and drops the engine.
func setUp(sp spec, seed int64) (time.Duration, error) {
	t0 := time.Now()
	e, w, s, err := build(sp, sp.config(seed), &meter{t0: t0})
	if err != nil {
		return 0, err
	}
	// sim.Run installs the solution before Init; first touches place pages
	// through it.
	e.SetSolution(s)
	w.Init(e)
	return time.Since(t0), nil
}

// settledLiveHeap collects garbage and returns the live heap. It collects
// twice because objects in sync.Pool victim caches, such as the buffer
// encoding/json keeps from the last encoded Result, survive the first.
func settledLiveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// meter marks the end of set-up and carries the tracer of a traced
// simulation (nil otherwise).
type meter struct {
	t0    time.Time
	setup time.Duration
	tr    *tracer
}

// meteredWorkload marks the end of set-up at Init's return and, traced,
// times each RunInterval.
type meteredWorkload struct {
	sim.Workload
	m *meter
}

func (w *meteredWorkload) Init(e *sim.Engine) {
	w.Workload.Init(e)
	w.m.setup = time.Since(w.m.t0)
	w.m.tr.initDone(e)
}

func (w *meteredWorkload) RunInterval(e *sim.Engine) {
	w.m.tr.enter("workload")
	w.Workload.RunInterval(e)
	w.m.tr.leave()
}

// encode writes res as JSON into a SHA-256 hash and returns the hex digest
// and the encoded size.
func encode(res *mtm.Result) (string, int64, error) {
	h := sha256.New()
	cw := &countingWriter{w: h}
	if err := json.NewEncoder(cw).Encode(res); err != nil {
		return "", cw.n, fmt.Errorf("encoding result: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func firstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
