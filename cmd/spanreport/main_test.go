package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mtm"
	"mtm/internal/admission"
	"mtm/internal/span"
)

// traced runs a small traced simulation and returns the result plus its
// JSONL trace bytes.
func traced(t *testing.T, workload, solution string) (*mtm.Result, []byte) {
	t.Helper()
	cfg := mtm.DefaultConfig()
	cfg.Scale = 512
	cfg.OpsFactor = 0.1
	cfg.Trace = &span.Config{}
	res, err := mtm.Run(cfg, workload, solution)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Spans == nil {
		t.Fatal("run produced no span export")
	}
	var buf bytes.Buffer
	if err := res.Spans.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return res, buf.Bytes()
}

// TestBreakdownMatchesResult is the acceptance cross-check: the analyzer
// must reproduce the run's app/profiling/migration breakdown from the
// JSONL stream alone, exactly.
func TestBreakdownMatchesResult(t *testing.T) {
	res, trace := traced(t, "gups", "mtm")
	rep, err := analyze(bytes.NewReader(trace), "trace.jsonl")
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if got := len(rep.Intervals); got != res.Intervals {
		t.Errorf("intervals: trace has %d, result has %d", got, res.Intervals)
	}
	app, prof, mig := rep.Totals()
	if app != res.App {
		t.Errorf("app time: trace sums to %v, result says %v", app, res.App)
	}
	if prof != res.Profiling {
		t.Errorf("profiling time: trace sums to %v, result says %v", prof, res.Profiling)
	}
	if mig != res.Migration {
		t.Errorf("migration time: trace sums to %v, result says %v", mig, res.Migration)
	}
	var promoted, demoted int64
	for _, row := range rep.Intervals {
		promoted += row.PromotedBytes
		demoted += row.DemotedBytes
	}
	if promoted != res.PromotedBytes {
		t.Errorf("promoted bytes: trace sums to %d, result says %d", promoted, res.PromotedBytes)
	}
	if demoted != res.DemotedBytes {
		t.Errorf("demoted bytes: trace sums to %d, result says %d", demoted, res.DemotedBytes)
	}
}

// TestDecisionProvenanceCoversMigrations asserts every migrated byte has a
// matching promote/demote decision event carrying its provenance.
func TestDecisionProvenanceCoversMigrations(t *testing.T) {
	res, trace := traced(t, "gups", "mtm")
	rep, err := analyze(bytes.NewReader(trace), "trace.jsonl")
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	var promoted, demoted int64
	for _, d := range rep.Decisions {
		switch d.Outcome {
		case "promote":
			promoted += d.Bytes
		case "demote":
			demoted += d.Bytes
		}
		if d.Rule == "" {
			t.Errorf("decision %+v has no rule", d)
		}
		if d.VMA == "" {
			t.Errorf("decision %+v has no region identity", d)
		}
	}
	if promoted != res.PromotedBytes {
		t.Errorf("promote decisions cover %d bytes, result promoted %d", promoted, res.PromotedBytes)
	}
	if demoted != res.DemotedBytes {
		t.Errorf("demote decisions cover %d bytes, result demoted %d", demoted, res.DemotedBytes)
	}
}

// TestExplainOutput runs the CLI end to end and checks the explain view
// prints a provenance line per migration decision.
func TestExplainOutput(t *testing.T) {
	_, trace := traced(t, "gups", "mtm")
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, trace, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-explain", path}, &out, &errb); code != 0 {
		t.Fatalf("spanreport exited %d: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"solution:  MTM", "profiling:", "rule=fast-promotion", "rule=slow-demotion", "threshold=", "dst="} {
		if !strings.Contains(s, want) {
			t.Errorf("explain output missing %q\n%s", want, s)
		}
	}
	rep, err := analyze(bytes.NewReader(trace), "trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var migrated int
	for _, d := range rep.Decisions {
		if d.Outcome == "promote" || d.Outcome == "demote" {
			migrated++
		}
	}
	if migrated == 0 {
		t.Fatal("trace has no migration decisions; test workload too small")
	}
	if got := strings.Count(s, "promote ") + strings.Count(s, "demote "); got < migrated {
		t.Errorf("explain printed %d migration lines, trace has %d decisions", got, migrated)
	}
}

// TestExplainAdmissionROI asserts admission-gated decisions render their
// ROI evidence in the explain view: the admission rule names and the
// roi/allowed/budget fields parsed from the span attributes.
func TestExplainAdmissionROI(t *testing.T) {
	cfg := mtm.DefaultConfig()
	cfg.Scale = 512
	cfg.OpsFactor = 0.25
	cfg.Trace = &span.Config{}
	cfg.Admission = true
	res, err := mtm.Run(cfg, "pingpong", "mtm")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var buf bytes.Buffer
	if err := res.Spans.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	rep, err := analyze(bytes.NewReader(buf.Bytes()), "trace.jsonl")
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	var withROI int
	for _, d := range rep.Decisions {
		if d.HasROI {
			withROI++
		}
	}
	if withROI == 0 {
		t.Fatal("no decision carries ROI evidence; admission spans not parsed")
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-explain", path}, &out, &errb); code != 0 {
		t.Fatalf("spanreport exited %d: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"rule=" + admission.RuleAdmitted, "roi=", "allowed=", "budget="} {
		if !strings.Contains(s, want) {
			t.Errorf("explain output missing %q", want)
		}
	}
	if got := strings.Count(s, "roi="); got < withROI {
		t.Errorf("explain printed %d roi fields, trace has %d ROI decisions", got, withROI)
	}
}

// TestUsageErrors checks flag and input validation exit codes.
func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no input: exit %d, want 2", code)
	}
	// A second trace, beside -in or after the first positional one,
	// would be ignored.
	for _, args := range [][]string{{"-in", "a.jsonl", "b.jsonl"}, {"a.jsonl", "b.jsonl"}} {
		errb.Reset()
		if code := run(args, &out, &errb); code != 2 || !strings.Contains(errb.String(), "usage:") {
			t.Errorf("%v: exit %d, stderr %q; want 2 and a usage line", args, code, errb.String())
		}
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.jsonl")}, &out, &errb); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("{\"format\":\"other\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{path}, &out, &errb); code != 1 {
		t.Errorf("bad header: exit %d, want 1", code)
	}
}

// TestDamagedTraceRejected: a trace cut short of the span count its
// header gives, or one with a malformed span line, exits 1 with an error
// naming the file and, for a bad line, the line number.
func TestDamagedTraceRejected(t *testing.T) {
	_, trace := traced(t, "gups", "mtm")
	lines := strings.SplitAfter(string(trace), "\n")
	dir := t.TempDir()
	for _, c := range []struct {
		name, body, want string
	}{
		{"cut.jsonl", strings.Join(lines[:8], ""), ": 7 span lines, the header counts"},
		{"bad.jsonl", strings.Join(lines[:3], "") + "{\"interval\":\n", ":4: bad span line"},
	} {
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if code := run([]string{path}, &out, &errb); code != 1 || out.Len() != 0 {
			t.Errorf("%s: exit %d, stdout %q; want exit 1 and no output", c.name, code, out.String())
		}
		if !strings.Contains(errb.String(), path+c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, errb.String(), path+c.want)
		}
	}
}
