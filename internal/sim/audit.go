// End-of-run invariant auditor: cross-checks the three ledgers the
// engine keeps about the same physical facts — page-table residency,
// per-tier capacity accounting, and the migration/metrics counters —
// and reports any drift. The audit is pure reads; it can run between
// intervals or after a run, on healthy and failed (OOM) engines alike.
package sim

import (
	"fmt"
	"math/bits"
	"strings"

	"mtm/internal/health"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// AuditError lists every invariant violation one Audit call found.
type AuditError struct {
	Problems []string
}

func (e *AuditError) Error() string {
	return fmt.Sprintf("sim: audit failed: %s", strings.Join(e.Problems, "; "))
}

// Audit cross-checks the engine's accounting invariants and returns an
// *AuditError describing every violation, or nil when all hold:
//
//   - residency: for every node, present page bytes + capacity tax +
//     opaque solution carve-outs (NoteOpaqueReserve) equal the used
//     ledger, and used + quarantined fits in capacity;
//   - quarantine: quarantined bytes across the machine equal the bytes
//     poisoned over the run (dead frames never come back);
//   - offline tiers hold no resident pages;
//   - shadows: every node's shadow ledger equals the shadowed pages whose
//     record names it, shadowValid ⊆ shadowAll, and the live retention
//     records, each in the FIFO of the node its page's record names,
//     number as many as the shadowed pages;
//   - moves: committed transaction bytes equal promoted + demoted +
//     drained volume (aborted transactions contribute to none of them);
//   - pair counts: the per-pair moved/aborted counts sum to the engine's
//     committed moves and aborts. Every metric reads the count it exports
//     from its owner, so the export needs no check of its own.
func (e *Engine) Audit() error {
	var probs []string
	nodes := e.Sys.Topo.Nodes

	resident := make([]int64, len(nodes))
	for _, v := range e.AS.VMAs() {
		for i := 0; i < v.NPages; i++ {
			if v.Present(i) {
				n := v.Node(i)
				if int(n) < 0 || int(n) >= len(nodes) {
					probs = append(probs, fmt.Sprintf("present page %s/%d on invalid node %d", v.Name, i, n))
					continue
				}
				resident[n] += v.PageSize
			} else if v.Node(i) != tier.Invalid {
				probs = append(probs, fmt.Sprintf("non-present page %s/%d still bound to node %d", v.Name, i, v.Node(i)))
			}
		}
	}

	var quarantined int64
	for i := range nodes {
		n := tier.NodeID(i)
		var tax, opaque int64
		if e.taxBytes != nil {
			tax = e.taxBytes[i]
		}
		if e.opaqueBytes != nil {
			opaque = e.opaqueBytes[i]
		}
		if want, got := resident[i]+tax+opaque, e.Sys.Used(n); want != got {
			probs = append(probs, fmt.Sprintf(
				"%s residency: present %d + tax %d + opaque %d = %d, used ledger says %d",
				nodes[i].Name, resident[i], tax, opaque, want, got))
		}
		if e.Sys.Used(n)+e.Sys.Quarantined(n)+e.Sys.ShadowBytes(n) > e.Sys.Capacity(n) {
			probs = append(probs, fmt.Sprintf(
				"%s over capacity: used %d + quarantined %d + shadow %d > capacity %d",
				nodes[i].Name, e.Sys.Used(n), e.Sys.Quarantined(n), e.Sys.ShadowBytes(n), e.Sys.Capacity(n)))
		}
		quarantined += e.Sys.Quarantined(n)
		if e.TierHealth(n) == health.StateOffline && resident[i] > 0 {
			probs = append(probs, fmt.Sprintf(
				"%s is Offline but still holds %d resident bytes", nodes[i].Name, resident[i]))
		}
	}
	if quarantined != e.poisonedBytes {
		probs = append(probs, fmt.Sprintf(
			"quarantine ledger: tiers hold %d quarantined bytes, %d bytes were poisoned",
			quarantined, e.poisonedBytes))
	}

	// Shadow-frame reconciliation: the capacity ledger, the VMA planes
	// with the shadow node in each page record (the shadow index), and
	// the retention FIFOs describe the same retained frames.
	if e.shd != nil {
		perNode := make([]int64, len(nodes))
		shadowed := 0
		for _, v := range e.AS.VMAs() {
			for w := 0; w < v.Words(); w++ {
				all := v.ShadowedWord(w)
				if orphan := v.ShadowValidRangeWord(w, 0, v.NPages) &^ all; orphan != 0 {
					probs = append(probs, fmt.Sprintf("shadow planes: %s/%d has a valid shadow but is not shadowed",
						v.Name, w*vm.WordPages+bits.TrailingZeros64(orphan)))
				}
				for ; all != 0; all &= all - 1 {
					i := w*vm.WordPages + bits.TrailingZeros64(all)
					shadowed++
					if n := v.ShadowNode(i); int(n) >= 0 && int(n) < len(nodes) {
						perNode[n] += v.PageSize
					} else {
						probs = append(probs, fmt.Sprintf("shadowed page %s/%d names invalid node %d", v.Name, i, n))
					}
				}
			}
		}
		for i := range nodes {
			if got := e.Sys.ShadowBytes(tier.NodeID(i)); got != perNode[i] {
				probs = append(probs, fmt.Sprintf(
					"%s shadow ledger: system holds %d shadow bytes, shadowed pages sum to %d",
					nodes[i].Name, got, perNode[i]))
			}
		}
		live := 0
		for i := range nodes {
			e.shd.each(tier.NodeID(i), func(r shadowRec) {
				live++
				if got := r.v.ShadowNode(int(r.idx)); got != tier.NodeID(i) {
					probs = append(probs, fmt.Sprintf(
						"shadow FIFO: live %s record for %s/%d, but the page's shadow node is %d",
						nodes[i].Name, r.v.Name, r.idx, got))
				}
			})
		}
		if live != shadowed {
			probs = append(probs, fmt.Sprintf(
				"shadow FIFO: %d live records, but %d pages are marked shadowed", live, shadowed))
		}
	} else {
		for i := range nodes {
			if got := e.Sys.ShadowBytes(tier.NodeID(i)); got != 0 {
				probs = append(probs, fmt.Sprintf(
					"%s holds %d shadow bytes with shadow retention off", nodes[i].Name, got))
			}
		}
	}
	if e.FreeDemotionBytes > e.DemotedBytes+e.intDemoted {
		probs = append(probs, fmt.Sprintf(
			"free demotions: %d bytes flipped exceeds %d bytes demoted",
			e.FreeDemotionBytes, e.DemotedBytes+e.intDemoted))
	}
	if e.FreeDemotions > e.committedPages {
		probs = append(probs, fmt.Sprintf(
			"free demotions: %d flips exceed %d committed moves",
			e.FreeDemotions, e.committedPages))
	}

	// Committed-move ledger. intPromoted/intDemoted cover a partially
	// accounted interval when Audit runs mid-run; endInterval zeroes them
	// after folding into the totals.
	moved := e.PromotedBytes + e.intPromoted + e.DemotedBytes + e.intDemoted + e.DrainedBytes
	if e.committedBytes != moved {
		probs = append(probs, fmt.Sprintf(
			"move ledger: %d bytes committed, but promoted+demoted+drained = %d",
			e.committedBytes, moved))
	}

	var movedPages, abortedPages int64
	for _, p := range e.pairs {
		movedPages += p.moved
		abortedPages += p.aborted
	}
	if movedPages != e.committedPages {
		probs = append(probs, fmt.Sprintf(
			"pair counts: moved pages %d != committed transactions %d",
			movedPages, e.committedPages))
	}
	if abortedPages != e.MigrationAborts {
		probs = append(probs, fmt.Sprintf(
			"pair counts: aborted pages %d != migration aborts %d",
			abortedPages, e.MigrationAborts))
	}

	if len(probs) == 0 {
		return nil
	}
	return &AuditError{Problems: probs}
}
