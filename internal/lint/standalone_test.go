package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTempModule lays out a throwaway module with one package holding
// a mixed atomic/plain counter — two autofixable findings.
func writeTempModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/tmpmod\n\ngo 1.22\n",
		"counter.go": `package tmpmod

import "sync/atomic"

type counter struct{ hits int64 }

func (c *counter) bump() { atomic.AddInt64(&c.hits, 1) }

func (c *counter) read() int64 { return c.hits }

func (c *counter) reset() { c.hits = 0 }
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(root, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestStandaloneDiffAndFix drives the full -diff → -fix → clean cycle
// of the standalone driver against a temp module.
func TestStandaloneDiffAndFix(t *testing.T) {
	root := writeTempModule(t)

	// Report + diff: two findings, one fixable file, hunks printed.
	var buf bytes.Buffer
	findings, fixable, err := RunStandalone(StandaloneOptions{Root: root, Diff: true, Analyzers: Analyzers}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("want 2 findings (plain read + plain store), got %d: %v", len(findings), findings)
	}
	if fixable != 1 {
		t.Fatalf("want 1 fixable file, got %d", fixable)
	}
	out := buf.String()
	if !strings.Contains(out, "atomic.LoadInt64(&c.hits)") || !strings.Contains(out, "atomic.StoreInt64(&c.hits, 0)") {
		t.Fatalf("diff output missing rewrites:\n%s", out)
	}
	// -diff must not touch the file.
	src, err := os.ReadFile(filepath.Join(root, "counter.go"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(src), "LoadInt64") {
		t.Fatal("-diff modified the file")
	}

	// Apply.
	buf.Reset()
	if _, fixable, err = RunStandalone(StandaloneOptions{Root: root, Fix: true, Analyzers: Analyzers}, &buf); err != nil {
		t.Fatal(err)
	}
	if fixable != 1 {
		t.Fatalf("fix pass should report 1 rewritten file, got %d", fixable)
	}
	src, err = os.ReadFile(filepath.Join(root, "counter.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "return atomic.LoadInt64(&c.hits)") ||
		!strings.Contains(string(src), "atomic.StoreInt64(&c.hits, 0)") {
		t.Fatalf("fixes not applied:\n%s", src)
	}

	// The fixed module is clean.
	buf.Reset()
	findings, _, err = RunStandalone(StandaloneOptions{Root: root, Analyzers: Analyzers}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("fixed module should be clean, got: %v", findings)
	}
}

// TestStandaloneJSON checks the machine-readable output path: a JSON
// array, one element per finding, sorted like the text form.
func TestStandaloneJSON(t *testing.T) {
	root := writeTempModule(t)
	var buf bytes.Buffer
	findings, _, err := RunStandalone(StandaloneOptions{Root: root, JSON: true, Analyzers: Analyzers}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		Package  string `json:"package"`
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Message  string `json:"message"`
		Fixable  bool   `json:"fixable"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded) != len(findings) {
		t.Fatalf("JSON has %d findings, driver returned %d", len(decoded), len(findings))
	}
	for i, d := range decoded {
		if d.Package != "example.com/tmpmod" {
			t.Errorf("finding %d: package = %q, want example.com/tmpmod", i, d.Package)
		}
		if d.Analyzer != "elsaatomic" {
			t.Errorf("finding %d: analyzer = %q, want elsaatomic", i, d.Analyzer)
		}
		if !strings.HasSuffix(d.File, "counter.go") || d.Line <= 0 || d.Column <= 0 {
			t.Errorf("finding %d: bad position %s:%d:%d", i, d.File, d.Line, d.Column)
		}
		if !d.Fixable {
			t.Errorf("finding %d: atomic rewrites are fixable, got fixable=false", i)
		}
	}
}

// TestStandaloneDeterministic applies the determinism contract to
// the suite itself: two passes over the same tree must produce
// byte-identical, sorted output — in both the text and JSON forms.
func TestStandaloneDeterministic(t *testing.T) {
	root := writeTempModule(t)
	run := func(json bool) string {
		var buf bytes.Buffer
		if _, _, err := RunStandalone(StandaloneOptions{Root: root, JSON: json, Analyzers: Analyzers}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := run(false), run(false); a != b {
		t.Fatalf("two text passes differ:\n--- first\n%s--- second\n%s", a, b)
	}
	if a, b := run(true), run(true); a != b {
		t.Fatalf("two JSON passes differ:\n--- first\n%s--- second\n%s", a, b)
	}

	if testing.Short() {
		return // the repo-wide double pass typechecks the module twice
	}
	repo := func(json bool) string {
		var buf bytes.Buffer
		if _, _, err := RunStandalone(StandaloneOptions{Root: filepath.Join("..", ".."), JSON: json, Analyzers: Analyzers}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := repo(false), repo(false); a != b {
		t.Fatalf("two repo-wide text passes differ:\n--- first\n%s--- second\n%s", a, b)
	}
	if a, b := repo(true), repo(true); a != b {
		t.Fatalf("two repo-wide JSON passes differ:\n--- first\n%s--- second\n%s", a, b)
	}
}

// TestStandaloneRepoClean runs the full suite over this repository —
// the acceptance gate that every real finding has been fixed or
// carries a reasoned suppression, and that the snapshot/atomic
// contracts hold tree-wide.
func TestStandaloneRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short")
	}
	var buf bytes.Buffer
	findings, _, err := RunStandalone(StandaloneOptions{Root: filepath.Join("..", ".."), Analyzers: Analyzers}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("repository has %d unresolved findings:\n%s", len(findings), buf.String())
	}
}
