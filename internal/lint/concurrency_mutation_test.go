package lint

// Mutation-style guards for the concurrency-protocol analyzers: each
// test verifies real (or real-shaped) source clean, injects the exact
// bug class the analyzer exists for, and demands the finding. A suite
// that only blesses today's code proves nothing about tomorrow's
// sharding work; these tests prove the analyzers bite.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// loadRealFiles loads one fixture package from the real package at
// pkgDir: src stands in for the file name, and the named siblings ride
// along unmutated so the package typechecks.
func loadRealFiles(t *testing.T, pkgDir, name, src string, siblings ...string) *fixture {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, sib := range siblings {
		b, err := os.ReadFile(filepath.Join(pkgDir, sib))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sib), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return loadFixture(t, dir)
}

// TestLockOrderMutationGuard loads the REAL resilience supervisor
// source, verifies it clean, then appends two functions acquiring
// Supervisor.mu and an auxiliary mutex in opposite orders — the
// textbook deadlock — and demands elsalockorder report the cycle.
func TestLockOrderMutationGuard(t *testing.T) {
	pkgDir := filepath.Join("..", "resilience")
	src, err := os.ReadFile(filepath.Join(pkgDir, "resilience.go"))
	if err != nil {
		t.Fatal(err)
	}
	// resilience.go references the Backoff helper.
	load := func(main string) *fixture { return loadRealFiles(t, pkgDir, "resilience.go", main, "backoff.go") }

	// Control: the shipped supervisor has a consistent lock order.
	if diags := runAnalyzers(t, load(string(src)), []*analysis.Analyzer{LockOrderAnalyzer}); len(diags) != 0 {
		t.Fatalf("control (real resilience.go) should be clean, got: %v", diags)
	}
	// Mutant: a second mutex taken in both orders relative to s.mu.
	mutant := string(src) + `
var mutAux sync.Mutex

func (s *Supervisor) mutForward() {
	s.mu.Lock()
	mutAux.Lock()
	mutAux.Unlock()
	s.mu.Unlock()
}

func (s *Supervisor) mutReverse() {
	mutAux.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	mutAux.Unlock()
}
`
	diags := runAnalyzers(t, load(mutant), []*analysis.Analyzer{LockOrderAnalyzer})
	if len(diags) != 1 {
		t.Fatalf("mutant should produce exactly one cycle finding, got %d: %v", len(diags), diags)
	}
	msg := diags[0].Message
	if !strings.Contains(msg, "lock-order cycle") ||
		!strings.Contains(msg, "Supervisor.mu") || !strings.Contains(msg, "mutAux") {
		t.Fatalf("finding does not describe the injected cycle: %s", msg)
	}
	if !strings.Contains(msg, "mutForward") || !strings.Contains(msg, "mutReverse") {
		t.Fatalf("finding does not name both acquisition paths: %s", msg)
	}
}

// TestChanMutationGuard loads the REAL ingest socket backend, verifies
// it clean, then closes its done channel a second time in Close and
// demands elsachan report the double close.
func TestChanMutationGuard(t *testing.T) {
	pkgDir := filepath.Join("..", "ingest")
	src, err := os.ReadFile(filepath.Join(pkgDir, "socket.go"))
	if err != nil {
		t.Fatal(err)
	}
	// socket.go uses the frame codec and the package's Offset/Stats types.
	load := func(main string) *fixture {
		return loadRealFiles(t, pkgDir, "socket.go", main, "frame.go", "ingest.go")
	}

	if diags := runAnalyzers(t, load(string(src)), []*analysis.Analyzer{ChanAnalyzer}); len(diags) != 0 {
		t.Fatalf("control (real socket.go) should be clean, got: %v", diags)
	}

	const closeDone = "\tclose(s.done)\n"
	if n := strings.Count(string(src), closeDone); n != 1 {
		t.Fatalf("socket.go closes s.done %d times, want exactly 1 to mutate", n)
	}
	mutant := strings.Replace(string(src), closeDone, closeDone+closeDone, 1)
	diags := runAnalyzers(t, load(mutant), []*analysis.Analyzer{ChanAnalyzer})
	if len(diags) != 1 {
		t.Fatalf("mutant should produce exactly one finding, got %d: %v", len(diags), diags)
	}
	if msg := diags[0].Message; !strings.Contains(msg, "s.done") || !strings.Contains(msg, "closed more than once") {
		t.Fatalf("finding does not describe the double close: %s", msg)
	}
}

// ingestShapedTmpl mirrors ingest.Source.Next's error path: a reader
// whose drain loop must quarantine or count malformed records.
const ingestShapedTmpl = `package ingest

import (
	"errors"
	"io"
)

var errBad = errors.New("bad record")

type stats struct{ quarantined int }

type reader struct {
	src []int
	pos int
	st  stats
}

func (r *reader) next() (int, error) {
	if r.pos >= len(r.src) {
		return 0, io.EOF
	}
	v := r.src[r.pos]
	r.pos++
	if v < 0 {
		return 0, errBad
	}
	return v, nil
}

func (r *reader) drain() []int {
	var out []int
	for {
		v, err := r.next()
		if err == io.EOF {
			break
		}
		if err != nil {
%s		}
		out = append(out, v)
	}
	return out
}
`

// TestErrFlowMutationGuard replaces the quarantine counter with a bare
// continue — the silently shrinking training set — and demands
// elsaerrflow report the discarded error.
func TestErrFlowMutationGuard(t *testing.T) {
	clean := fmt.Sprintf(ingestShapedTmpl, "\t\t\tr.st.quarantined++\n\t\t\tcontinue\n")
	if diags := runAnalyzers(t, loadSource(t, clean), []*analysis.Analyzer{ErrFlowAnalyzer}); len(diags) != 0 {
		t.Fatalf("control fixture should be clean, got: %v", diags)
	}

	mutant := fmt.Sprintf(ingestShapedTmpl, "\t\t\tcontinue\n")
	diags := runAnalyzers(t, loadSource(t, mutant), []*analysis.Analyzer{ErrFlowAnalyzer})
	if len(diags) != 1 {
		t.Fatalf("mutant should produce exactly one finding, got %d: %v", len(diags), diags)
	}
	if msg := diags[0].Message; !strings.Contains(msg, "neither returns, quarantines, nor counts") {
		t.Fatalf("finding does not describe the swallowed error: %s", msg)
	}
}
