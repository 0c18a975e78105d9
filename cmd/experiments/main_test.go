package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors: arguments that would be ignored or would run at other
// settings than asked are usage errors caught before any driver runs.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		// Parsing stops at "fig3", so -exp tab5 would be dropped and all
		// 17 drivers would run.
		{[]string{"fig3", "-exp", "tab5"}, `unexpected argument "fig3"`},
		{[]string{"-exp", "fig99"}, `unknown experiment "fig99"`},
		{[]string{"-scale", "0"}, "-scale and -ops must be positive"},
		{[]string{"-ops", "NaN"}, "-scale and -ops must be positive"},
		{[]string{"-bogus"}, "flag provided but not defined"},
	} {
		var out, errs bytes.Buffer
		if code := run(c.args, &out, &errs); code != 2 {
			t.Errorf("%v exited %d, want 2", c.args, code)
		}
		if out.Len() != 0 || !strings.Contains(errs.String(), c.want) {
			t.Errorf("%v: stdout %q, stderr %q (want %q)", c.args, out.String(), errs.String(), c.want)
		}
	}
}

// TestRunsSelectedExperiment: -exp selects the drivers that run, and
// each section ends with its completion line.
func TestRunsSelectedExperiment(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-exp", "fig1", "-scale", "512", "-ops", "0.02"}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	if got := strings.Count(out.String(), " completed in "); got != 1 || !strings.Contains(out.String(), "[fig1 completed in ") {
		t.Fatalf("want one fig1 section, got:\n%s", out.String())
	}
}
