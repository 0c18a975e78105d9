package policy

import (
	"mtm/internal/admission"
	"mtm/internal/migrate"
	"mtm/internal/profiler"
	"mtm/internal/region"
	"mtm/internal/sim"
	"mtm/internal/span"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// TieredAutoNUMA is the Linux memory-tiering baseline built on NUMA
// balancing (§2.1, §9): a sequential hint-fault scan covers 256 MB per
// interval, pages judged hot are promoted, and — the structural limitation
// §9.1 highlights — promotion moves one tier at a time toward the fast
// memory, preferring swaps within a socket, so a page on the remote slow
// tier needs several intervals to reach the top. Migration uses Linux
// move_pages().
//
// Patched selects the two upstream improvements evaluated in the paper:
// hot-page selection via hint-fault latency and automatic hot-threshold
// adjustment targeting the promotion rate limit.
type TieredAutoNUMA struct {
	Patched       bool
	MigrateBudget int64

	profiled
	mech migrate.Mechanism
	// hotThreshold is the WHI above which a region is promotion-worthy;
	// the patched variant adjusts it to track the budget.
	hotThreshold float64
	// HotBytesIdentified accumulates the volume the policy classified
	// hot (Table 3).
	HotBytesIdentified int64
	// carry accumulates unused promotion budget across intervals.
	carry int64
}

// NewTieredAutoNUMA returns the baseline; patched=false is the vanilla
// variant.
func NewTieredAutoNUMA(patched bool) *TieredAutoNUMA {
	return &TieredAutoNUMA{
		Patched:       patched,
		MigrateBudget: DefaultMigrateBudget,
		profiled:      profiled{profiler.NewSequentialScan(patched)},
		mech:          migrate.MovePages{},
		hotThreshold:  0.5,
	}
}

func (p *TieredAutoNUMA) Name() string {
	if p.Patched {
		return "tiered-AutoNUMA"
	}
	return "vanilla tiered-AutoNUMA"
}

func (p *TieredAutoNUMA) Place(e *sim.Engine, v *vm.VMA, idx int, socket int) tier.NodeID {
	return place(e, v, socket, PlaceFastFirst)
}

func (p *TieredAutoNUMA) IntervalEnd(e *sim.Engine) {
	p.Prof.Profile(e)
	regions := p.Prof.Regions()
	budget := p.MigrateBudget + p.carry
	var promoted int64
	// The vanilla variant classifies on "any access this window"; the
	// patched one compares WHI to the auto-adjusted threshold.
	threshold := p.hotThreshold
	if !p.Patched {
		threshold = 0
	}
	e.SpanBegin("policy", "plan",
		span.S("policy", p.Name()),
		span.I("regions", int64(len(regions))),
		span.F("hot_threshold", threshold),
		span.I("budget", budget))
	defer e.SpanEnd()

	for _, r := range regions {
		if budget <= 0 {
			spanDecision(e, "stop", "budget-exhausted", r,
				span.I("budget", p.MigrateBudget+p.carry))
			break
		}
		hot := r.WHI > p.hotThreshold
		if !p.Patched {
			// Vanilla: only the most recent scan window matters and any
			// observed access makes a candidate.
			hot = r.Sampled && r.HI > 0
		}
		if !hot {
			continue
		}
		p.HotBytesIdentified += r.Bytes()
		node := profiler.RegionNode(r)
		if node == tier.Invalid {
			continue
		}
		socket := regionSocket(e, r)
		view := e.Sys.Topo.View(socket)
		rank := rankOf(view, node)
		if rank <= 0 {
			continue
		}
		// One tier up only; same-socket destinations are preferred by
		// construction of the view (local nodes rank earlier).
		dst := view[rank-1]
		if !destUsable(e, r, node, dst) {
			continue
		}
		pages := r.Pages()
		if max := int(budget / r.V.PageSize); pages > max {
			pages = max
		}
		if pages == 0 {
			break
		}
		dec := admitMigration(e, r, node, dst, int64(pages)*r.V.PageSize)
		if dec.Verdict != admission.VerdictAdmit {
			// One-tier-up only: there is no alternative pair for this
			// region, so a refusal skips it for this interval.
			continue
		}
		need := dec.AllowedBytes
		if e.Sys.Free(dst) < need {
			p.demoteFor(e, regions, dst, need-e.Sys.Free(dst), view)
		}
		if e.Sys.Free(dst) < need {
			spanDecision(e, "skip", "no-room", r,
				span.S("dst", nodeName(e, dst)))
			continue
		}
		moved := moveRegion(e, p.mech, r, r.Start+int(need/r.V.PageSize), dst, 0,
			true, "hot-threshold", dec.Rule, span.F("threshold", threshold))
		budget -= moved
		promoted += moved
	}

	p.carry = carryOver(budget, p.MigrateBudget)
	if p.Patched {
		// Automatic hot-threshold adjustment: promote close to, but not
		// above, the rate limit.
		switch {
		case promoted >= p.MigrateBudget:
			p.hotThreshold *= 1.25
		case promoted < p.MigrateBudget/4 && p.hotThreshold > 0.05:
			p.hotThreshold *= 0.8
		}
	}
}

// demoteFor pushes the coldest regions resident on dst one tier down to
// make room for a promotion, LRU-style: lowest WHI first.
func (p *TieredAutoNUMA) demoteFor(e *sim.Engine, regions []*region.Region, dst tier.NodeID, need int64, view []tier.NodeID) {
	dstRank := rankOf(view, dst)
	if dstRank < 0 || dstRank+1 >= len(view) {
		return
	}
	hist := buildHistogram(regions)
	var freed int64
	for _, r := range hist.ColdestFirst() {
		if freed >= need {
			return
		}
		if profiler.RegionNode(r) != dst {
			continue
		}
		moved, _ := demoteVictim(e, p.mech, r, dst, view[dstRank+1:], r.Bytes(), "lru-coldest")
		freed += moved
	}
}
