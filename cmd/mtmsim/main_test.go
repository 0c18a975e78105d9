package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mtm/internal/metrics"
	"mtm/internal/promlint"
)

// small returns CLI args for a fast run, with extras appended.
func small(extra ...string) []string {
	return append([]string{
		"-workload", "gups", "-solution", "mtm",
		"-scale", "512", "-ops", "0.1",
	}, extra...)
}

// TestJSONEmitsErrorEnvelopeOnOOM: a run that dies of capacity exhaustion
// must still print the partial Result as JSON, carry the failure in the
// "error" field, and exit non-zero.
func TestJSONEmitsErrorEnvelopeOnOOM(t *testing.T) {
	var out, errs bytes.Buffer
	code := run(small("-faults", "capacity-crunch", "-json"), &out, &errs)
	if code == 0 {
		t.Fatalf("OOM run exited 0 (stderr: %s)", errs.String())
	}
	var payload struct {
		Error         string `json:"error"`
		Solution      string
		TotalAccesses int64
	}
	if err := json.Unmarshal(out.Bytes(), &payload); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, out.String())
	}
	if !strings.Contains(payload.Error, "out of memory") {
		t.Fatalf("error field = %q, want an out-of-memory message", payload.Error)
	}
	if payload.Solution == "" {
		t.Fatal("partial result fields missing from the envelope")
	}
}

// TestJSONCleanRunHasNoErrorField: the envelope must not add noise to
// successful runs (the determinism gate diffs this output).
func TestJSONCleanRunHasNoErrorField(t *testing.T) {
	var out bytes.Buffer
	if code := run(small("-json"), &out, io.Discard); code != 0 {
		t.Fatalf("clean run exited %d", code)
	}
	if bytes.Contains(out.Bytes(), []byte(`"error"`)) {
		t.Fatal("clean run emitted an error field")
	}
}

// TestMetricsPromOutputLints: -metrics file -metrics-format prom must
// produce a parseable Prometheus text exposition.
func TestMetricsPromOutputLints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.prom")
	var errs bytes.Buffer
	if code := run(small("-metrics", path, "-metrics-format", "prom"), io.Discard, &errs); code != 0 {
		t.Fatalf("metrics run exited %d: %s", code, errs.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := promlint.Lint(f); err != nil {
		t.Fatalf("prom output does not lint: %v", err)
	}
}

// TestMetricsJSONSamplesEveryInterval: the exported time series must hold
// exactly one sample per profiling interval of the run.
func TestMetricsJSONSamplesEveryInterval(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var out bytes.Buffer
	if code := run(small("-metrics", path, "-json"), &out, io.Discard); code != 0 {
		t.Fatalf("metrics run failed")
	}
	var res struct{ Intervals int }
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Intervals < 1 {
		t.Fatalf("run completed in %d intervals; test needs at least one", res.Intervals)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var x metrics.Export
	if err := json.Unmarshal(b, &x); err != nil {
		t.Fatalf("metrics file is not an Export: %v", err)
	}
	if x.Series == nil {
		t.Fatal("export has no time series")
	}
	if got := len(x.Series.Samples); got != res.Intervals {
		t.Fatalf("series has %d samples, want one per interval (%d)", got, res.Intervals)
	}
}

// TestAdmissionFlag: -admission enables the gate and surfaces its
// counters in the text report; without the flag the JSON envelope must
// not mention admission at all (the determinism gate diffs that output
// against pre-admission baselines).
func TestAdmissionFlag(t *testing.T) {
	var out bytes.Buffer
	args := []string{
		"-workload", "pingpong", "-solution", "mtm",
		"-scale", "512", "-ops", "0.25", "-admission",
	}
	if code := run(args, &out, io.Discard); code != 0 {
		t.Fatalf("admission run exited %d", code)
	}
	if !strings.Contains(out.String(), "admission:") {
		t.Errorf("text report lacks the admission line:\n%s", out.String())
	}

	out.Reset()
	if code := run(small("-json"), &out, io.Discard); code != 0 {
		t.Fatalf("clean run exited %d", code)
	}
	if bytes.Contains(out.Bytes(), []byte("Admission")) {
		t.Error("admission-free JSON envelope mentions admission fields")
	}
}

// TestAdmissionLanesValue: "default" is the only lane setting; any other
// value fails Config.Validate with an error naming it, and "default"
// runs with the per-class lane breakdown in the JSON result.
func TestAdmissionLanesValue(t *testing.T) {
	var errs bytes.Buffer
	if code := run(small("-admission-lanes", "strict"), io.Discard, &errs); code == 0 {
		t.Fatal("-admission-lanes strict exited 0")
	}
	if !strings.Contains(errs.String(), "default") {
		t.Fatalf("error does not name the accepted value: %s", errs.String())
	}

	var out bytes.Buffer
	if code := run(small("-admission-lanes", "default", "-json"), &out, io.Discard); code != 0 {
		t.Fatalf("-admission-lanes default exited %d", code)
	}
	if !bytes.Contains(out.Bytes(), []byte(`"AdmissionLanes"`)) {
		t.Error("lanes run carries no AdmissionLanes breakdown")
	}
}

// TestInvalidMetricsFormatRejected: a bad -metrics-format is a usage
// error, caught before any simulation runs.
func TestInvalidMetricsFormatRejected(t *testing.T) {
	var errs bytes.Buffer
	if code := run(small("-metrics", "x", "-metrics-format", "xml"), io.Discard, &errs); code != 2 {
		t.Fatalf("bad format exited %d, want 2", code)
	}
	if !strings.Contains(errs.String(), "metrics-format") {
		t.Fatalf("unhelpful error: %s", errs.String())
	}
}

// TestReportNoAccessesPrintsZeroShares: a run that fails before its first
// access prints each node's share as 0.0%, not NaN%.
func TestReportNoAccessesPrintsZeroShares(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-workload", "gups", "-scale", "100000000", "-ops", "0.01"}
	if code := run(args, &out, io.Discard); code != 1 {
		t.Fatalf("exit %d, want 1 (out of memory)", code)
	}
	if strings.Contains(out.String(), "NaN") {
		t.Fatalf("report prints NaN:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "DRAM0             0 (0.0%)") {
		t.Fatalf("report lacks a zero share for DRAM0:\n%s", out.String())
	}
}

// TestBudgetWithDefaultScale: -scale 0 selects the default scale, and
// -budget-mb divides by that scale, so the run equals one at the explicit
// default scale with the same budget. The budget must reach the run: the
// output differs from the default budget's.
func TestBudgetWithDefaultScale(t *testing.T) {
	out := func(args ...string) string {
		t.Helper()
		var o, errs bytes.Buffer
		args = append([]string{"-workload", "gups", "-solution", "mtm", "-ops", "0.002"}, args...)
		if code := run(args, &o, &errs); code != 0 {
			t.Fatalf("%v exited %d: %s", args, code, errs.String())
		}
		return o.String()
	}
	got := out("-scale", "0", "-budget-mb", "1600")
	if want := out("-scale", "64", "-budget-mb", "1600"); got != want {
		t.Fatalf("-scale 0 -budget-mb 1600:\n%s\nwant the -scale 64 run:\n%s", got, want)
	}
	if got == out("-scale", "64") {
		t.Fatal("-budget-mb 1600 ran as the default budget")
	}
}

// TestBudgetOutOfRangeRejected: a negative -budget-mb, or one whose byte
// count overflows int64, is a usage error rather than a run at the
// default budget.
func TestBudgetOutOfRangeRejected(t *testing.T) {
	for _, mb := range []string{"-5", "8796093022208", "17592186044416"} {
		var errs bytes.Buffer
		if code := run(small("-budget-mb", mb), io.Discard, &errs); code != 2 {
			t.Errorf("-budget-mb %s exited %d, want 2", mb, code)
		} else if !strings.Contains(errs.String(), "-budget-mb") {
			t.Errorf("-budget-mb %s: unhelpful error: %s", mb, errs.String())
		}
	}
}

// TestIgnoredArgumentsRejected: an argument the run would silently drop
// is a usage error. Flag parsing stops at the first positional argument,
// so -json after "extra" would never take effect, and a file format
// without its file would write nothing.
func TestIgnoredArgumentsRejected(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-ops", "0.01", "extra", "-json"}, `"extra"`},
		{small("-metrics-format", "prom"), "-metrics <file>"},
		{small("-spans-format", "chrome"), "-spans <file>"},
	} {
		var out, errs bytes.Buffer
		if code := run(c.args, &out, &errs); code != 2 {
			t.Errorf("%v exited %d, want 2", c.args, code)
		}
		if out.Len() != 0 || !strings.Contains(errs.String(), c.want) {
			t.Errorf("%v: stdout %q, stderr %q (want it to name %s)", c.args, out.String(), errs.String(), c.want)
		}
	}
}
