package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mtm"
	"mtm/internal/span"
)

// annotated matches an ASCII row's outcome annotation, e.g. "  +3 -1".
var annotated = regexp.MustCompile(`(?m)  \+\d+ -\d+`)

// TestRun drives the CLI on one pingpong/MTM run with the fidelity oracle
// and the span tracer on, written out the way mtmsim writes it.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	cfg := mtm.DefaultConfig()
	cfg.Scale = 512
	cfg.OpsFactor = 0.1
	cfg.Fidelity = true
	cfg.Trace = &span.Config{}
	res, err := mtm.Run(cfg, "pingpong", "mtm")
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, fill func(*os.File) error) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fill(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	result := write("run.json", func(f *os.File) error { return json.NewEncoder(f).Encode(res) })
	noFid := *res
	noFid.Fidelity = nil
	plain := write("plain.json", func(f *os.File) error { return json.NewEncoder(f).Encode(&noFid) })
	jsonl := write("trace.jsonl", func(f *os.File) error { return res.Spans.WriteJSONL(f) })
	chrome := write("trace.chrome.json", func(f *os.File) error { return res.Spans.WriteChrome(f) })
	header, _, _ := strings.Cut(mustRead(t, jsonl), "\n")
	malformed := write("bad.jsonl", func(f *os.File) error {
		_, err := f.WriteString(header + "\nnot json\n")
		return err
	})
	lines := strings.SplitAfter(mustRead(t, jsonl), "\n")
	truncated := write("cut.jsonl", func(f *os.File) error {
		_, err := f.WriteString(strings.Join(lines[:8], ""))
		return err
	})

	cli := func(args ...string) (code int, stdout, stderr string) {
		var out, errs bytes.Buffer
		code = run(args, &out, &errs)
		return code, out.String(), errs.String()
	}

	t.Run("jsonl-annotates-rows", func(t *testing.T) {
		code, out, errs := cli("-spans", jsonl, result)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errs)
		}
		if !annotated.MatchString(out) {
			t.Fatalf("no row carries an outcome annotation:\n%s", out)
		}
		_, bare, _ := cli(result)
		if annotated.MatchString(bare) {
			t.Fatal("a render without -spans carries annotations")
		}
		if got, want := strings.Count(out, "\n"), strings.Count(bare, "\n"); got != want {
			t.Fatalf("annotated render has %d lines, bare render %d", got, want)
		}
	})
	t.Run("chrome-trace-exits-1", func(t *testing.T) {
		code, out, errs := cli("-spans", chrome, result)
		if code != 1 || out != "" {
			t.Fatalf("exit %d, stdout %q; want exit 1 and no output", code, out)
		}
		if !strings.Contains(errs, chrome+":1:") {
			t.Fatalf("error does not name the header line: %s", errs)
		}
	})
	t.Run("malformed-line-exits-1", func(t *testing.T) {
		code, out, errs := cli("-spans", malformed, result)
		if code != 1 || out != "" {
			t.Fatalf("exit %d, stdout %q; want exit 1 and no output", code, out)
		}
		if !strings.Contains(errs, malformed+":2: bad span line") {
			t.Fatalf("error does not name the bad line: %s", errs)
		}
	})
	t.Run("truncated-trace-exits-1", func(t *testing.T) {
		code, out, errs := cli("-spans", truncated, result)
		if code != 1 || out != "" {
			t.Fatalf("exit %d, stdout %q; want exit 1 and no output", code, out)
		}
		if !strings.Contains(errs, truncated+": 7 span lines, the header counts") {
			t.Fatalf("error does not report the truncation: %s", errs)
		}
	})
	t.Run("no-fidelity-exits-1", func(t *testing.T) {
		code, out, errs := cli("-spans", jsonl, plain)
		if code != 1 || out != "" {
			t.Fatalf("exit %d, stdout %q; want exit 1 and no output", code, out)
		}
		if !strings.Contains(errs, "no fidelity heatmap") {
			t.Fatalf("unexpected error: %s", errs)
		}
	})
}

func mustRead(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
