package mtm

import (
	"bytes"
	"encoding/json"
	"testing"

	"mtm/internal/admission"
	"mtm/internal/fidelity"
	"mtm/internal/sim"
	"mtm/internal/tier"
)

// engineRules are the lineage rules of the engine's own moves. No
// admission decision prices them, so they alone may read "unguarded".
var engineRules = map[string]bool{"health-drain": true, "emergency-demotion": true}

// ruleTotals sums each policy rule's resolved moves over admission
// labels.
func ruleTotals(rows []fidelity.RuleOutcome) map[string]int64 {
	out := map[string]int64{}
	for _, r := range rows {
		out[r.Rule] += r.PromotedReaccessed + r.PromotedWasted + r.DemotedRefaulted + r.DemotedCorrect + r.FlipResurrected
	}
	return out
}

// TestLineageLabelsAdmittedMoves pins the lineage labels of admitted
// moves: every move a policy plans carries the rule of the admission
// decision that priced it, even when room for a promotion was made by
// demoting victims between its admission and its migration. The per-rule
// totals are the moves the runs made before the labels were passed
// explicitly; relabelling must not change which moves happen. (The
// tiered-autonuma totals were 45 then; they rose when its promotion
// carry stopped charging promoted bytes twice.)
func TestLineageLabelsAdmittedMoves(t *testing.T) {
	want := map[string]map[string]int64{
		"mtm":             {"fast-promotion": 75, "slow-demotion": 72},
		"hemem":           {"hot-samples": 85, "coldest-first": 85},
		"tiered-autonuma": {"hot-threshold": 65, "lru-coldest": 65},
		"autotiering":     {"sampled-recent": 84, "opportunistic": 84},
		"nomad":           {"fast-promotion": 74, "slow-demotion": 43, "shadow-flip": 29},
	}
	if sim.RaceEnabled {
		// The simulator starts no goroutines, so -race adds no signal here
		// for its ~10x cost; MTM and Nomad cover the copy and flip paths.
		want = map[string]map[string]int64{"mtm": want["mtm"], "nomad": want["nomad"]}
	}
	for sol, totals := range want {
		t.Run(sol, func(t *testing.T) {
			cfg := thrashCfg()
			cfg.Seed = 7
			cfg.Fidelity = true
			cfg.Admission = true
			res, err := Run(cfg, "pingpong", sol)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, r := range res.Fidelity.ByRule {
				if r.Rule == "unattributed" {
					t.Errorf("%d+%d moves ran outside any move context (admission %q)",
						r.PromotedReaccessed+r.PromotedWasted, r.DemotedRefaulted+r.DemotedCorrect+r.FlipResurrected, r.Admission)
				}
				if r.Admission == "unguarded" && !engineRules[r.Rule] {
					t.Errorf("policy rule %q has moves labelled unguarded with admission on: %+v", r.Rule, r)
				}
			}
			got := ruleTotals(res.Fidelity.ByRule)
			for rule, n := range totals {
				if got[rule] != n {
					t.Errorf("rule %q resolved %d moves, want %d (all: %v)", rule, got[rule], n, got)
				}
			}
			if len(got) != len(totals) {
				t.Errorf("rules %v, want exactly %v", got, totals)
			}
		})
	}
}

// TestLearnedFloorsIndependentOfOracle pins the contract of the shared
// lineage ledger: the admission learner and the fidelity oracle read the
// same ledger, and attaching the oracle must change nothing but the
// Fidelity block. With and without the oracle, the Result JSON is
// byte-identical once Fidelity is cleared, and every pair's learned
// floor matches.
func TestLearnedFloorsIndependentOfOracle(t *testing.T) {
	sols := []string{"mtm", "nomad"}
	if sim.RaceEnabled {
		sols = sols[:1] // same trim rationale as TestLineageLabelsAdmittedMoves
	}
	for _, sol := range sols {
		for _, faults := range []string{"", "cxl-flaky"} {
			name := "pingpong/" + sol + "/plain"
			if faults != "" {
				name = "pingpong/" + sol + "/" + faults
			}
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Scale = 512
				cfg.OpsFactor = 0.25
				cfg.Faults = faults
				cfg.AdmissionLearn = true
				cfg.AdmissionLanes = "default"
				type outcome struct {
					json   []byte
					floors []float64
				}
				runOnce := func(fid bool) outcome {
					c := cfg
					c.Fidelity = fid
					c = c.withDefaults()
					w, err := NewWorkload("pingpong", c)
					if err != nil {
						t.Fatal(err)
					}
					s, err := NewSolution(sol, c)
					if err != nil {
						t.Fatal(err)
					}
					e := NewEngine(c)
					res, err := run(c, e, w, s)
					if err != nil {
						t.Fatalf("run (fidelity=%v): %v", fid, err)
					}
					if fid != (res.Fidelity != nil) {
						t.Fatalf("fidelity=%v but Fidelity block present=%v", fid, res.Fidelity != nil)
					}
					res.Fidelity = nil
					b, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					var floors []float64
					n := len(e.Sys.Topo.Nodes)
					for src := 0; src < n; src++ {
						for dst := 0; dst < n; dst++ {
							floors = append(floors, e.AdmissionMinROI(tier.NodeID(src), tier.NodeID(dst)))
						}
					}
					return outcome{b, floors}
				}
				off, on := runOnce(false), runOnce(true)
				if !bytes.Equal(off.json, on.json) {
					t.Errorf("Result differs with the oracle attached:\nwithout: %s\nwith:    %s", off.json, on.json)
				}
				static := admission.MinROI
				moved := false
				for i := range off.floors {
					if off.floors[i] != on.floors[i] {
						t.Errorf("pair %d learned floor %v without the oracle, %v with it", i, off.floors[i], on.floors[i])
					}
					if off.floors[i] != static {
						moved = true
					}
				}
				if !moved {
					t.Error("no learned floor moved off the static MinROI; the comparison is vacuous")
				}
			})
		}
	}
}
