package lint

// A minimal analysistest: golang.org/x/tools/go/analysis/analysistest is
// not vendored, so fixtures are loaded with go/parser + go/types and the
// source importer, analyzers run over a hand-built analysis.Pass with an
// in-memory fact store, and diagnostics are matched against
// // want "regexp" comments — the same convention the real analysistest
// uses. Suggested fixes are carried through on the diagnostics for
// tests that assert on them.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/copylock"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// wantRx extracts the quoted regexps of a `// want "a" "b"` comment.
var wantRx = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type fixture struct {
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	wants map[string][]*want // "file.go:line" -> expectations
}

type want struct {
	rx      *regexp.Regexp
	matched bool
}

func loadFixture(t *testing.T, dir string) *fixture {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	fx := &fixture{fset: token.NewFileSet(), wants: make(map[string][]*want)}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		f, err := parser.ParseFile(fx.fset, path, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		fx.files = append(fx.files, f)
		lines := strings.Split(string(src), "\n")
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				pos := fx.fset.Position(c.Pos())
				line := pos.Line
				// A want comment alone on its line states expectations for
				// the line below (needed when the target line's trailing
				// comment is itself under test, e.g. a //nolint directive).
				if line-1 < len(lines) && strings.TrimSpace(lines[line-1]) == strings.TrimSpace(c.Text) {
					line++
				}
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), line)
				for _, m := range wantRx.FindAllStringSubmatch(c.Text[i+len("// want "):], -1) {
					rx, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, m[1], err)
					}
					fx.wants[key] = append(fx.wants[key], &want{rx: rx})
				}
			}
		}
	}
	if len(fx.files) == 0 {
		t.Fatalf("fixture dir %s has no go files", dir)
	}
	fx.info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: importer.ForCompiler(fx.fset, "source", nil)}
	pkg, err := conf.Check(fx.files[0].Name.Name, fx.fset, fx.files, fx.info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", dir, err)
	}
	fx.pkg = pkg
	return fx
}

// factStore is the harness's in-memory stand-in for the driver's fact
// storage: facts exported by one analyzer are visible to later
// analyzers of the same runAnalyzers call, mirroring how go vet feeds
// facts forward (minus the gob round-trip, covered by its own test).
type factStore struct {
	objs map[types.Object][]analysis.Fact
	pkgs map[*types.Package][]analysis.Fact
}

func newFactStore() *factStore {
	return &factStore{
		objs: make(map[types.Object][]analysis.Fact),
		pkgs: make(map[*types.Package][]analysis.Fact),
	}
}

// set records fact in the slice, replacing an existing fact of the
// same concrete type (the analysis framework's semantics).
func setFact(facts []analysis.Fact, fact analysis.Fact) []analysis.Fact {
	t := reflect.TypeOf(fact)
	for i, f := range facts {
		if reflect.TypeOf(f) == t {
			facts[i] = fact
			return facts
		}
	}
	return append(facts, fact)
}

// get copies a stored fact of fact's concrete type into fact.
func getFact(facts []analysis.Fact, fact analysis.Fact) bool {
	t := reflect.TypeOf(fact)
	for _, f := range facts {
		if reflect.TypeOf(f) == t {
			reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(f).Elem())
			return true
		}
	}
	return false
}

// runAnalyzers executes the analyzers over a loaded fixture, collecting
// diagnostics and threading facts between them.
func runAnalyzers(t *testing.T, fx *fixture, analyzers []*analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	var diags []analysis.Diagnostic
	store := newFactStore()
	results := map[*analysis.Analyzer]interface{}{
		inspect.Analyzer: inspector.New(fx.files),
	}
	for _, a := range analyzers {
		for _, req := range a.Requires {
			if _, ok := results[req]; !ok {
				t.Fatalf("analyzer %s requires %s, which this harness does not provide", a.Name, req.Name)
			}
		}
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       fx.fset,
			Files:      fx.files,
			Pkg:        fx.pkg,
			TypesInfo:  fx.info,
			TypesSizes: types.SizesFor("gc", "amd64"),
			ResultOf:   results,
			Report:     func(d analysis.Diagnostic) { diags = append(diags, d) },
			ExportObjectFact: func(obj types.Object, fact analysis.Fact) {
				store.objs[obj] = setFact(store.objs[obj], fact)
			},
			ImportObjectFact: func(obj types.Object, fact analysis.Fact) bool {
				return getFact(store.objs[obj], fact)
			},
			ExportPackageFact: func(fact analysis.Fact) {
				store.pkgs[fx.pkg] = setFact(store.pkgs[fx.pkg], fact)
			},
			ImportPackageFact: func(pkg *types.Package, fact analysis.Fact) bool {
				return getFact(store.pkgs[pkg], fact)
			},
			AllObjectFacts:  func() []analysis.ObjectFact { return nil },
			AllPackageFacts: func() []analysis.PackageFact { return nil },
		}
		if _, err := a.Run(pass); err != nil {
			t.Fatalf("analyzer %s: %v", a.Name, err)
		}
	}
	return diags
}

// runOn loads the fixture at testdata/<dir> and runs the analyzers over
// it, checking every diagnostic against the // want comments.
func runOn(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	fx := loadFixture(t, filepath.Join("testdata", dir))
	diags := runAnalyzers(t, fx, analyzers)

	// Index diagnostics by line so unmatched wants can say what WAS
	// reported there — the difference between "tweak the regexp" and
	// "rerun under a debugger".
	got := make(map[string][]string)
	var problems []string
	for _, d := range diags {
		pos := fx.fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
		got[key] = append(got[key], d.Message)
		found := false
		for _, w := range fx.wants[key] {
			if w.rx.MatchString(d.Message) {
				w.matched, found = true, true
			}
		}
		if !found {
			problems = append(problems, fmt.Sprintf("%s: unexpected diagnostic: %s", key, d.Message))
		}
	}
	for key, ws := range fx.wants {
		for _, w := range ws {
			if w.matched {
				continue
			}
			detail := "no diagnostics on this line"
			if msgs := got[key]; len(msgs) > 0 {
				detail = "diagnostics on this line: " + strings.Join(msgs, " | ")
			}
			problems = append(problems, fmt.Sprintf("%s: expected diagnostic matching %q, got none (%s)", key, w.rx, detail))
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// TestHotPath, TestDeterminism and TestLockSafe keep the fixtures of
// the analyzers folded into elsaalloc, elsadetflow and elsachan (the
// lock-copy lines now answer to upstream copylocks), so every finding
// class they pinned stays pinned.
func TestHotPath(t *testing.T)     { runOn(t, "hotpath", AllocAnalyzer) }
func TestAlloc(t *testing.T)       { runOn(t, "alloc", AllocAnalyzer) }
func TestSnapshot(t *testing.T)    { runOn(t, "snapshotfix", SnapshotAnalyzer) }
func TestAtomic(t *testing.T)      { runOn(t, "atomicmix", AtomicAnalyzer) }
func TestDeterminism(t *testing.T) { runOn(t, "determinism", DetFlowAnalyzer) }
func TestCtxFlow(t *testing.T)     { runOn(t, "ctxflow", CtxFlowAnalyzer) }
func TestLockSafe(t *testing.T)    { runOn(t, "locksafe", ChanAnalyzer, copylock.Analyzer) }
func TestChanFlow(t *testing.T)    { runOn(t, "chanflow", ChanAnalyzer) }
func TestLockOrder(t *testing.T)   { runOn(t, "lockorder", LockOrderAnalyzer) }
func TestErrFlow(t *testing.T)     { runOn(t, "errflow", ErrFlowAnalyzer) }
func TestState(t *testing.T)       { runOn(t, "state", StateAnalyzer) }
func TestDetFlow(t *testing.T)     { runOn(t, "detflow", DetFlowAnalyzer) }
func TestNolint(t *testing.T) {
	// The nolint fixture exercises suppression end to end: the package is
	// named sig so elsadetflow's training-package ban applies, and the
	// audit analyzer runs alongside to flag malformed directives.
	runOn(t, "nolint", DetFlowAnalyzer, NolintAnalyzer)
}

func TestParseNolint(t *testing.T) {
	cases := []struct {
		text   string
		ok     bool
		names  []string
		reason string
	}{
		{"//nolint:elsahotpath // grows once", true, []string{"elsahotpath"}, "grows once"},
		{"//nolint:elsa -- blanket, reviewed", true, []string{"elsa"}, "blanket, reviewed"},
		{"//nolint:a,b // r", true, []string{"a", "b"}, "r"},
		{"//nolint:elsahotpath", true, []string{"elsahotpath"}, ""},
		{"// ordinary comment", false, nil, ""},
	}
	for _, c := range cases {
		e, ok := parseNolint(c.text)
		if ok != c.ok {
			t.Errorf("parseNolint(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if e.reason != c.reason {
			t.Errorf("parseNolint(%q) reason = %q, want %q", c.text, e.reason, c.reason)
		}
		if fmt.Sprint(e.names) != fmt.Sprint(c.names) {
			t.Errorf("parseNolint(%q) names = %v, want %v", c.text, e.names, c.names)
		}
	}
}
