package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun: a valid file lints OK, a second file is a usage error rather
// than silently ignored, and a missing file fails.
func TestRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ok.prom")
	if err := os.WriteFile(path, []byte("# TYPE up gauge\nup 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errs bytes.Buffer
	if code := run([]string{path}, &out, &errs); code != 0 || !strings.Contains(out.String(), "OK") {
		t.Fatalf("valid file: exit %d, stdout %q, stderr %q", code, out.String(), errs.String())
	}
	errs.Reset()
	if code := run([]string{path, path}, &out, &errs); code != 2 || !strings.Contains(errs.String(), "usage:") {
		t.Errorf("two files: exit %d, stderr %q; want 2 and a usage line", code, errs.String())
	}
	if code := run([]string{path + ".missing"}, &out, &errs); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
}
