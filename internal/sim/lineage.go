package sim

import "mtm/internal/vm"

// DefaultFidelityHorizon is the outcome-resolution window of the lineage
// ledger, in intervals: a committed move that sees no reaccess for this
// many intervals is judged wasted (promotions) or correct (demotions).
const DefaultFidelityHorizon = 8

// pendingMove is one committed page move awaiting its hindsight verdict.
// It holds its labels as an index into lineage.labels and its nodes as
// bytes (tier.MaxNodes is 16), 24 bytes an entry.
type pendingMove struct {
	v        *vm.VMA
	idx      int32
	interval int32
	promote  bool
	flip     bool
	label    uint16
	src, dst int8
}

// moveLabel is the lineage of a move: the policy rule that planned it and
// the admission rule that priced it.
type moveLabel struct{ rule, adm string }

// lineage is the engine's one pending-move ledger. Every committed page
// move lands here in commit order, tagged with the policy rule that
// planned it and the admission rule that priced it, and waits for its
// hindsight verdict. Two consumers read the verdicts: the fidelity oracle
// tallies every move per rule, and the admission learner feeds each
// promotion to its pair's floor. Because both read the same entries under
// the same horizon, learned floors are identical with and without the
// oracle. Nil unless one of them is attached.
type lineage struct {
	// pend is FIFO in commit order, compacted in place on resolve.
	pend []pendingMove
	// labels holds each distinct (rule, admission) pair a move was
	// labelled with; a run sees a handful.
	labels []moveLabel
	// cur indexes the label of the moves that follow (SetMoveContext).
	cur uint16
}

// setLabel makes (rule, adm) the current label, with the defaults for
// unlabelled moves applied.
func (l *lineage) setLabel(rule, adm string) {
	if rule == "" {
		rule = "unattributed"
	}
	if adm == "" {
		adm = "unguarded"
	}
	ml := moveLabel{rule, adm}
	for i, x := range l.labels {
		if x == ml {
			l.cur = uint16(i)
			return
		}
	}
	l.cur = uint16(len(l.labels))
	l.labels = append(l.labels, ml)
}

// enableLineage attaches the ledger (idempotent); called by EnableFidelity
// and by EnableAdmission with learning on.
func (e *Engine) enableLineage() {
	if e.lin == nil {
		e.lin = &lineage{}
		e.lin.setLabel("", "")
	}
}

// SetMoveContext labels the page moves that follow, until
// ClearMoveContext, with their lineage: rule is the policy clause that
// planned them and admRule the admission rule that priced them. An empty
// admRule means no admission layer priced the moves; they are recorded as
// "unguarded". No-op without the ledger.
func (e *Engine) SetMoveContext(rule, admRule string) {
	if e.lin != nil {
		e.lin.setLabel(rule, admRule)
	}
}

// ClearMoveContext clears the lineage labels set by SetMoveContext.
func (e *Engine) ClearMoveContext() {
	if e.lin != nil {
		e.lin.setLabel("", "")
	}
}

// lineageMoveCommitted appends one committed move to the ledger under the
// current context. Called from commitMove in commit order.
// Without the oracle only promotions are kept: the learner reads nothing
// else.
func (e *Engine) lineageMoveCommitted(v *vm.VMA, idx int, p *pairInfo, flip bool) {
	l := e.lin
	if l == nil || (!p.promote && e.fid == nil) {
		return
	}
	l.pend = append(l.pend, pendingMove{
		v:        v,
		idx:      int32(idx),
		interval: int32(e.Intervals),
		promote:  p.promote,
		flip:     flip,
		label:    l.cur,
		src:      int8(p.src),
		dst:      int8(p.dst),
	})
}

// lineageResolve walks the ledger in commit order and resolves every move
// that saw a reaccess this interval or whose horizon expired, handing the
// verdict to the oracle and, for promotions, to the admission learner.
// Resolution reads the access counts, so it runs once per interval after
// the oracle's sample and before ResetCounts. Moves committed this
// interval are skipped — their counts predate the move.
func (e *Engine) lineageResolve() {
	l := e.lin
	if l == nil {
		return
	}
	learn := e.adm != nil && e.adm.learn
	cur := int32(e.Intervals)
	keep := l.pend[:0]
	for i := range l.pend {
		m := &l.pend[i]
		if m.interval >= cur {
			keep = append(keep, *m)
			continue
		}
		reaccessed := m.v.Present(int(m.idx)) && m.v.Count(int(m.idx)) > 0
		if !reaccessed && cur-m.interval < DefaultFidelityHorizon {
			keep = append(keep, *m)
			continue
		}
		if learn && m.promote && !m.flip {
			e.adm.ctl.NoteOutcome(int(m.src), int(m.dst), reaccessed)
		}
		e.fidelityOutcome(m, reaccessed, cur)
	}
	l.pend = keep
}
