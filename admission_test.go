package mtm

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mtm/internal/admission"
	"mtm/internal/span"
)

// thrashFaults is the overload scenario the admission layer is built
// for: the fastest tier (node 0, every promotion's destination) fails
// most inbound copies during most of the run, so an unguarded policy
// keeps burning migration bandwidth on copies that abort.
const thrashFaults = "tier-fail-prob=0.9,tier-fail-duty=0.7,tier-fail-node=0"

// thrashCfg mirrors the CLI's default sizing (scale 256, half-length
// runs) — the same operating point the CI thrash sentinel measures.
func thrashCfg() Config {
	cfg := DefaultConfig()
	cfg.Scale = 256
	cfg.OpsFactor = 0.5
	return cfg
}

// TestAdmissionReducesWaste is the acceptance bar for the admission
// layer: on the ping-pong workload with a flaky promotion destination,
// enabling admission must cut wasted migration bytes by at least 30%
// without costing more than 5% application time.
func TestAdmissionReducesWaste(t *testing.T) {
	off := thrashCfg()
	off.Faults = thrashFaults
	base, err := Run(off, "pingpong", "mtm")
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if base.WastedBytes == 0 {
		t.Fatal("baseline wasted no bytes; the scenario no longer exercises waste")
	}
	if base.AdmissionAdmits+base.AdmissionDefers+base.AdmissionRejects+base.ThrashSuppressed != 0 {
		t.Fatalf("admission counters nonzero without the layer enabled: %+v", base)
	}

	on := off
	on.Admission = true
	res, err := Run(on, "pingpong", "mtm")
	if err != nil {
		t.Fatalf("admission run: %v", err)
	}
	if res.AdmissionAdmits == 0 {
		t.Error("admission layer admitted nothing; the gate is not wired into the policy")
	}
	if res.AdmissionDefers+res.AdmissionRejects == 0 {
		t.Error("admission layer refused nothing on an overload scenario")
	}
	if got, limit := res.WastedBytes, base.WastedBytes*7/10; got > limit {
		t.Errorf("admission cut waste to %d bytes, want <= %d (30%% below baseline %d)",
			got, limit, base.WastedBytes)
	}
	if got, limit := res.App, base.App+base.App/20; got > limit {
		t.Errorf("admission raised app time to %v, want <= %v (5%% above baseline %v)",
			got, limit, base.App)
	}
}

// TestAdmissionThrashSuppression asserts the per-page cool-down fires on
// the ping-pong workload: pages that just demoted are blocked from
// immediately re-promoting, and the suppressions surface in the Result.
func TestAdmissionThrashSuppression(t *testing.T) {
	cfg := thrashCfg()
	cfg.Faults = "cxl-flaky"
	cfg.Admission = true
	res, err := Run(cfg, "pingpong", "mtm")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.ThrashSuppressed == 0 {
		t.Error("no page move was thrash-suppressed on the ping-pong workload")
	}
}

// TestAdmissionJSONOmitsCountersWhenDisabled pins the envelope contract:
// a run without admission marshals to JSON with no Admission* keys at
// all, so pre-admission consumers (and the CI determinism diffs) see
// byte-identical output.
func TestAdmissionJSONOmitsCountersWhenDisabled(t *testing.T) {
	cfg := thrashCfg()
	cfg.OpsFactor = 0.1
	res, err := Run(cfg, "pingpong", "mtm")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("Admission")) || bytes.Contains(b, []byte("ThrashSuppressed")) {
		t.Errorf("admission-free Result JSON leaks admission fields: %s", b)
	}

	cfg.Admission = true
	res, err = Run(cfg, "pingpong", "mtm")
	if err != nil {
		t.Fatalf("admission run: %v", err)
	}
	if b, err = json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte("AdmissionAdmits")) {
		t.Errorf("admission-enabled Result JSON lacks AdmissionAdmits: %s", b)
	}
}

// TestAdmissionLanesJSONOmittedWhenOff asserts the per-traffic-class
// counters only appear in Result JSON when lanes are enabled, so every
// lanes-off run — including plain -admission — serializes byte-identically
// to a build without the lane machinery.
func TestAdmissionLanesJSONOmittedWhenOff(t *testing.T) {
	cfg := thrashCfg()
	cfg.OpsFactor = 0.1
	cfg.Admission = true
	res, err := Run(cfg, "pingpong", "mtm")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("AdmissionLanes")) {
		t.Errorf("lanes-off Result JSON leaks the AdmissionLanes block: %s", b)
	}

	cfg.AdmissionLanes = "default"
	if res, err = Run(cfg, "pingpong", "mtm"); err != nil {
		t.Fatalf("lanes run: %v", err)
	}
	if b, err = json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte("AdmissionLanes")) {
		t.Errorf("lanes-on Result JSON lacks the AdmissionLanes block: %s", b)
	}
	if res.AdmissionLanes == nil || res.AdmissionLanes.Normal.Requests == 0 {
		t.Errorf("lanes-on run recorded no normal-class requests: %+v", res.AdmissionLanes)
	}
}

// TestAdmissionSpanProvenance asserts every admission decision leaves a
// span trail with its ROI evidence: the admitted rule, at least one
// refusal rule, and the roi/allowed_bytes/budget_bytes attributes that
// `spanreport -explain` renders.
func TestAdmissionSpanProvenance(t *testing.T) {
	cfg := thrashCfg()
	cfg.Faults = thrashFaults
	cfg.Admission = true
	cfg.Trace = &span.Config{}
	res, err := Run(cfg, "pingpong", "mtm")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Spans == nil {
		t.Fatal("traced run produced no span export")
	}
	var buf bytes.Buffer
	if err := res.Spans.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	trace := buf.String()
	if !strings.Contains(trace, admission.RuleAdmitted) {
		t.Error("trace carries no admitted decision")
	}
	refused := false
	for _, rule := range []string{
		admission.RuleLowROI, admission.RuleVictimHot,
		admission.RuleBudget, admission.RuleShed, admission.RuleWaste,
	} {
		if strings.Contains(trace, rule) {
			refused = true
			break
		}
	}
	if !refused {
		t.Error("trace carries no refusal rule on an overload scenario")
	}
	for _, attr := range []string{`"roi":`, `"allowed_bytes":`, `"budget_bytes":`} {
		if !strings.Contains(trace, attr) {
			t.Errorf("trace lacks admission attribute %s", attr)
		}
	}
}
