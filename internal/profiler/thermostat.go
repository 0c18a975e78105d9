package profiler

import (
	"time"

	"mtm/internal/region"
	"mtm/internal/sim"
	"mtm/internal/span"
	"mtm/internal/vm"
)

// Thermostat is the Thermostat-style profiler (§3, §9.3): fixed-size 2 MB
// regions, one random 4 KB page sampled per region, and access counting by
// page-protection faults. Two costs distinguish it from PTE-scan
// profilers, both modelled here: every counted access takes a protection
// fault (expensive), and sampling a 4 KB slice of a 2 MB huge page
// extrapolates ×512 (noisy, the huge-page quality loss §5.4 describes).
type Thermostat struct{ regionTable }

// Thermostat's parameters: the paper's 5% overhead budget and the same
// EMA weight as MTM.
const (
	// thermostatOverheadTarget bounds the per-interval profiling cost;
	// regions are chosen uniformly at random until the predicted cost is
	// spent.
	thermostatOverheadTarget = 0.05
	// thermostatAlpha is the EMA weight for time-consecutive hotness.
	thermostatAlpha = 0.5
)

// NewThermostat creates the baseline.
func NewThermostat() *Thermostat { return &Thermostat{} }

func (t *Thermostat) Name() string { return "thermostat-profiler" }

func (t *Thermostat) Attach(e *sim.Engine) {
	t.attach(e, t.Name(), region.DefaultNumScans, DefaultRegionBytes)
}

// expectedFaultsPerSample is the planning estimate of protection faults
// taken per sampled page, used to size the random selection to the budget.
const expectedFaultsPerSample = 8

func (t *Thermostat) Profile(e *sim.Engine) {
	t.set.BeginInterval()
	regions := t.set.Regions()
	budget := time.Duration(float64(e.Interval) * thermostatOverheadTarget)
	perSample := ProtFaultCost * (1 + expectedFaultsPerSample)
	n := int(budget / perSample)
	if n < 1 {
		n = 1
	}
	if n > len(regions) {
		n = len(regions)
	}

	e.SpanBegin("profiling", "thermostat-profile",
		span.I("regions", int64(len(regions))),
		span.I("sampled", int64(n)))

	// Random region selection: the uncontrolled profiling quality the
	// paper attributes to Thermostat comes from exactly this step.
	perm := e.Rng.Perm(len(regions))
	var spent time.Duration
	for _, ri := range perm[:n] {
		r := regions[ri]
		p := r.Start + e.Rng.Intn(r.Pages())
		count := int(r.V.Count(p))
		est := count
		if r.V.PageSize == vm.HugePageSize {
			// A 4 KB slice of the 2 MB page: each access lands in the
			// sampled slice with probability 1/512; extrapolate back.
			hits := 0
			for i := 0; i < count && i < 4096; i++ {
				if e.Rng.Intn(vm.HugeRatio) == 0 {
					hits++
				}
			}
			if count > 4096 {
				hits += (count - 4096) / vm.HugeRatio
			}
			est = hits * vm.HugeRatio
		}
		faults := est / vm.HugeRatio
		if faults > expectedFaultsPerSample*4 {
			faults = expectedFaultsPerSample * 4 // protection re-armed lazily
		}
		spent += ProtFaultCost * time.Duration(1+faults)

		r.Samples = append(r.Samples[:0], p)
		// Normalise the estimate into scan-count units so merge/split
		// thresholds and histograms share a scale with MTM.
		obs := est / 1000
		if obs > t.set.NumScans {
			obs = t.set.NumScans
		}
		if est > 0 && obs == 0 {
			obs = 1
		}
		r.Observed = append(r.Observed[:0], obs)
		r.PrevHI = r.HI
		r.HI = float64(obs)
		r.Sampled = true
		r.UpdateEMA(thermostatAlpha)
	}
	e.SpanEmit("profiling", "prot-fault-sampling", e.SpanClockNs(), int64(spent),
		span.I("sampled", int64(n)))
	t.charge(e, spent, int64(n))
	e.SpanEnd()
}
