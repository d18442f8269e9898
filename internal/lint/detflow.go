package lint

// detflow.go is the determinism contract, at two strengths.
//
// Inside the training packages (sig, gradual, correlate, predict) the
// trained model must be bit-identical across runs, so every use of a
// wall-clock or global-rand function (calls and function values alike,
// package-level declarations included) and every slice appended under
// a range-over-map and never sorted in its function is a finding by
// itself. These are the rules a separate elsadeterminism analyzer once
// enforced; //nolint:elsadeterminism stays an accepted alias.
//
// Across the wider serving surface — pipeline, fleet, ingest and the
// root package — nondeterminism is only a bug when it *reaches
// replayed output*: predictions, snapshot/journal bytes, or exported
// stats. There the analyzer tracks taint from four source families:
//
//   - wall clock: time.Now / time.Since / time.Until
//   - global randomness: package-level math/rand functions
//   - map iteration order: slices appended under a range-over-map and
//     never sorted in the function
//   - arrival/completion order: slices appended inside multi-case
//     select arms or inside go'd closures writing to outer slices
//
// forward through assignments, and reports only when a tainted value
// hits a sink:
//
//   - the return value of an exported function or method
//   - an encoding/json, encoding/gob or encoding/binary call
//     (snapshot and journal bytes)
//   - a field store into an //elsa:snapshot struct
//
// The escape hatch is //elsa:nondet-ok <reason> on the source or sink
// line (or the line above): operational telemetry that is allowed to
// be wall-clock-stamped carries its justification in the code, and a
// reasonless escape is itself a finding, exactly like a reasonless
// //nolint. The escape hatch covers taint findings only; the training
// packages' outright bans answer to //nolint alone.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

const nondetOkDirective = "//elsa:nondet-ok"

// DetFlowAnalyzer bans nondeterminism sources in the training packages
// and reports nondeterminism that reaches replayed output elsewhere.
var DetFlowAnalyzer = &analysis.Analyzer{
	Name: "elsadetflow",
	Doc: "in training packages, report wall-clock reads, global math/rand use and unsorted " +
		"map-order output; elsewhere, track wall-clock, global-rand and iteration/arrival-order " +
		"taint through the serving path and report it where it reaches prediction output, " +
		"snapshot or journal bytes, or exported stats",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runDetFlow,
}

// trainingPackages are the packages whose output is the trained model:
// nondeterminism sources are banned there outright.
const trainingPackages = "sig,gradual,correlate,predict"

// detFlowPackages scopes the taint analysis to the packages whose
// output is replayed or persisted. The training packages are included
// for defence in depth: the outright ban already covers the sources
// there.
var detFlowPackages = "sig,gradual,correlate,predict,pipeline,fleet,ingest,elsa"

func init() {
	DetFlowAnalyzer.Flags.StringVar(&detFlowPackages, "packages", detFlowPackages,
		"comma-separated package names the determinism taint analysis covers")
}

// taintInfo records why a storage path is nondeterministic.
type taintInfo struct {
	kind string    // human description of the source
	pos  token.Pos // the source site
}

func runDetFlow(pass *analysis.Pass) (interface{}, error) {
	training := inPackageList(trainingPackages, pass.Pkg.Name())
	taint := inPackageList(detFlowPackages, pass.Pkg.Name())
	if !training && !taint {
		return nil, nil
	}
	rep := newReporter(pass)
	rep.sup.aliases = []string{"elsadeterminism"}

	df := &detFlow{
		pass:      pass,
		rep:       rep,
		training:  training,
		taint:     taint,
		okLines:   nondetOkIndex(pass, rep),
		snapTypes: snapshotAnnotatedTypes(pass),
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if training && !inTestFile(pass.Fset, n.Pos()) {
				df.banSource(n)
			}
		case *ast.FuncDecl:
			if n.Body != nil && !inTestFile(pass.Fset, n.Pos()) {
				df.checkFunc(n)
			}
		}
	})
	return nil, nil
}

// nondetOkIndex collects every reasoned //elsa:nondet-ok by file line.
// Reasonless directives are flagged and do not suppress — the escape
// hatch must document why the nondeterminism is acceptable.
func nondetOkIndex(pass *analysis.Pass, rep *reporter) map[string]map[int]bool {
	idx := make(map[string]map[int]bool)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				arg, ok := directiveText(c.Text, nondetOkDirective)
				if !ok {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				if strings.TrimSpace(arg) == "" {
					if !inTestFile(pass.Fset, c.Pos()) {
						rep.reportf(c.Pos(), "detflow: //elsa:nondet-ok needs a reason; an undocumented escape hatch cannot be audited")
					}
					continue
				}
				byLine := idx[p.Filename]
				if byLine == nil {
					byLine = make(map[int]bool)
					idx[p.Filename] = byLine
				}
				byLine[p.Line] = true
			}
		}
	}
	return idx
}

// snapshotAnnotatedTypes collects the package's //elsa:snapshot struct
// type names: stores into their fields persist across resume, so
// tainted stores there are sinks.
func snapshotAnnotatedTypes(pass *analysis.Pass) map[*types.TypeName]bool {
	out := make(map[*types.TypeName]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				if !hasDirective(doc, snapshotDirective) {
					continue
				}
				if obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
					out[obj] = true
				}
			}
		}
	}
	return out
}

// detFlow is the per-pass state.
type detFlow struct {
	pass      *analysis.Pass
	rep       *reporter
	training  bool // sources and map-order appends are findings by themselves
	taint     bool // run the source-to-sink taint analysis
	okLines   map[string]map[int]bool
	snapTypes map[*types.TypeName]bool
}

// okAt reports whether a reasoned //elsa:nondet-ok covers pos (its
// line or the line above, the nolint convention).
func (df *detFlow) okAt(pos token.Pos) bool {
	p := df.pass.Fset.Position(pos)
	byLine := df.okLines[p.Filename]
	return byLine != nil && (byLine[p.Line] || byLine[p.Line-1])
}

// reportSink emits one finding unless the source or sink carries a
// reasoned escape.
func (df *detFlow) reportSink(sinkPos token.Pos, t taintInfo, sink string) {
	if df.okAt(sinkPos) || df.okAt(t.pos) {
		return
	}
	df.rep.reportf(sinkPos, "detflow: %s (line %d) reaches %s; replayed output must be deterministic (sort/inject a seam, or //elsa:nondet-ok <reason>)",
		t.kind, df.pass.Fset.Position(t.pos).Line, sink)
}

// checkFunc runs the taint analysis over one function.
func (df *detFlow) checkFunc(fn *ast.FuncDecl) {
	sorted := df.sortedRoots(fn)
	taints := make(map[string]taintInfo)

	df.seedOrderTaints(fn, taints, sorted)
	if !df.taint {
		return
	}
	// Forward value propagation through assignments; two passes so a
	// later-defined helper value feeding an earlier loop converges.
	for i := 0; i < 2; i++ {
		df.propagate(fn, taints)
	}
	df.checkReturns(fn, taints)
	df.checkCalls(fn, taints)
	df.checkSnapshotStores(fn, taints)
}

// sortedRoots is every storage path handed to a sort call anywhere in
// the function: an explicit sort re-establishes order determinism.
func (df *detFlow) sortedRoots(fn *ast.FuncDecl) map[string]bool {
	info := df.pass.TypesInfo
	sorted := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		isSort := false
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if obj, ok := info.Uses[fun.Sel].(*types.Func); ok && obj.Pkg() != nil {
				switch obj.Pkg().Path() {
				case "sort", "slices":
					isSort = true
				default:
					isSort = strings.Contains(obj.Name(), "Sort")
				}
			}
		case *ast.Ident:
			// Project-local canonicalisers (SortHits, SortByTime, ...)
			// count: the contract is an explicit sort, wherever it lives.
			isSort = strings.Contains(fun.Name, "Sort") || strings.Contains(fun.Name, "sort")
		}
		if isSort {
			for _, arg := range call.Args {
				if r := rootString(arg); r != "" {
					sorted[r] = true
				}
			}
		}
		return true
	})
	return sorted
}

// nondetSource classifies a function as a nondeterminism source:
// "wall-clock" or "global-rand", "" otherwise. Only package-level
// functions count: methods on an explicitly seeded *rand.Rand, and the
// constructors over explicit seeds, are the sanctioned way to get
// randomness.
func nondetSource(obj *types.Func) string {
	if obj == nil || obj.Pkg() == nil || obj.Type().(*types.Signature).Recv() != nil {
		return ""
	}
	switch obj.Pkg().Path() {
	case "time":
		switch obj.Name() {
		case "Now", "Since", "Until":
			return "wall-clock"
		}
	case "math/rand", "math/rand/v2":
		switch obj.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		default:
			return "global-rand"
		}
	}
	return ""
}

// banSource reports a training-package use of a nondeterminism source.
// Selector uses, not just calls: assigning time.Now to a clock variable
// is the sanctioned injection seam, and it must carry the nolint that
// documents it.
func (df *detFlow) banSource(sel *ast.SelectorExpr) {
	obj, _ := df.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	switch nondetSource(obj) {
	case "wall-clock":
		df.rep.reportf(sel.Pos(), "determinism: time.%s reads the wall clock; inject a clock or timestamp instead", obj.Name())
	case "global-rand":
		df.rep.reportf(sel.Pos(), "determinism: %s.%s uses the shared global source; use an explicitly seeded *rand.Rand",
			obj.Pkg().Name(), obj.Name())
	}
}

// sourceTaint classifies a call as a nondeterminism source.
func (df *detFlow) sourceTaint(call *ast.CallExpr) (taintInfo, bool) {
	var obj *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj, _ = df.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	case *ast.Ident:
		obj, _ = df.pass.TypesInfo.Uses[fun].(*types.Func)
	}
	kind := nondetSource(obj)
	if kind == "" {
		return taintInfo{}, false
	}
	return taintInfo{kind: kind + " value from " + obj.Pkg().Name() + "." + obj.Name(), pos: call.Pos()}, true
}

// taintOf reports the taint an expression carries: a direct source
// call, or any mention of a tainted storage path (prefix matching in
// both directions: a tainted field taints its container and vice
// versa).
func (df *detFlow) taintOf(e ast.Expr, taints map[string]taintInfo) (taintInfo, bool) {
	var found taintInfo
	ok := false
	ast.Inspect(e, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a closure value is not itself tainted
		case *ast.CallExpr:
			if t, is := df.sourceTaint(n); is {
				found, ok = t, true
				return false
			}
		case *ast.Ident, *ast.SelectorExpr:
			path := rootString(n.(ast.Expr))
			if path == "" {
				return true
			}
			if t, is := lookupTaint(taints, path); is {
				found, ok = t, true
				return false
			}
			// Only descend into selector bases when the full path missed,
			// and idents need no descent.
			if _, isSel := n.(*ast.SelectorExpr); isSel {
				return false
			}
		}
		return true
	})
	return found, ok
}

// lookupTaint matches path against the taint map with bidirectional
// prefix semantics on dotted storage paths.
func lookupTaint(taints map[string]taintInfo, path string) (taintInfo, bool) {
	if t, ok := taints[path]; ok {
		return t, true
	}
	for p, t := range taints {
		if strings.HasPrefix(p, path+".") || strings.HasPrefix(path, p+".") {
			return t, true
		}
	}
	return taintInfo{}, false
}

// propagate walks every assignment, tainting LHS roots whose RHS
// carries taint.
func (df *detFlow) propagate(fn *ast.FuncDecl, taints map[string]taintInfo) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				root := rootString(l)
				if root == "" {
					continue
				}
				if t, ok := df.taintOf(rhs, taints); ok {
					if _, have := taints[root]; !have {
						taints[root] = t
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == len(n.Names) {
				for i, name := range n.Names {
					if t, ok := df.taintOf(n.Values[i], taints); ok {
						if _, have := taints[name.Name]; !have {
							taints[name.Name] = t
						}
					}
				}
			}
		}
		return true
	})
}

// seedOrderTaints marks slices whose element order depends on map
// iteration, select arrival, or goroutine completion. In the training
// packages each unsorted map-order append is also reported.
func (df *detFlow) seedOrderTaints(fn *ast.FuncDecl, taints map[string]taintInfo, sorted map[string]bool) {
	info := df.pass.TypesInfo
	banned := make(map[*ast.AssignStmt]bool) // nested map ranges visit an append twice
	seed := func(target string, kind string, pos token.Pos) {
		if target == "" || sorted[target] {
			return
		}
		if _, have := taints[target]; !have {
			taints[target] = taintInfo{kind: kind, pos: pos}
		}
	}
	appendTargets := func(body ast.Node, visit func(asg *ast.AssignStmt, target string)) {
		ast.Inspect(body, func(m ast.Node) bool {
			asg, ok := m.(*ast.AssignStmt)
			if !ok || len(asg.Rhs) != 1 {
				return true
			}
			call, ok := asg.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "append" {
				return true
			}
			if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
				return true
			}
			// Appending to a map element keyed by the loop key is
			// order-insensitive grouping, not ordered output.
			if ix, ok := asg.Lhs[0].(*ast.IndexExpr); ok {
				if _, isMap := info.TypeOf(ix.X).Underlying().(*types.Map); isMap {
					return true
				}
			}
			visit(asg, rootString(asg.Lhs[0]))
			return true
		})
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if _, isMap := info.TypeOf(n.X).Underlying().(*types.Map); isMap {
				appendTargets(n.Body, func(asg *ast.AssignStmt, target string) {
					if df.training && target != "" && !sorted[target] && !banned[asg] {
						banned[asg] = true
						df.rep.reportf(asg.Pos(),
							"determinism: %s is built in map iteration order and never sorted in this function; sort it (or //nolint:elsadetflow with the invariant that makes order irrelevant)",
							target)
					}
					seed(target, "map-iteration-ordered elements", asg.Pos())
				})
			}
		case *ast.SelectStmt:
			comms := 0
			for _, c := range n.Body.List {
				if cc := c.(*ast.CommClause); cc.Comm != nil {
					comms++
				}
			}
			if comms >= 2 {
				for _, c := range n.Body.List {
					appendTargets(c, func(asg *ast.AssignStmt, target string) {
						seed(target, "select-arrival-ordered elements", asg.Pos())
					})
				}
			}
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				appendTargets(lit.Body, func(asg *ast.AssignStmt, target string) {
					if declaredOutside(info, asg.Lhs[0], lit) {
						seed(target, "goroutine-completion-ordered elements", asg.Pos())
					}
				})
			}
		}
		return true
	})
}

// checkReturns flags tainted values returned from exported functions.
func (df *detFlow) checkReturns(fn *ast.FuncDecl, taints map[string]taintInfo) {
	if !fn.Name.IsExported() {
		return
	}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false // nested closures return to their own caller
			case *ast.ReturnStmt:
				for _, r := range m.Results {
					if t, ok := df.taintOf(r, taints); ok {
						df.reportSink(m.Pos(), t, "the return value of exported "+fn.Name.Name)
						break
					}
				}
			}
			return true
		})
	}
	walk(fn.Body)
}

// encodingSinkPkgs are the packages whose calls produce the bytes that
// land in snapshots, journals and wire output.
var encodingSinkPkgs = map[string]bool{
	"encoding/json":   true,
	"encoding/gob":    true,
	"encoding/binary": true,
}

// checkCalls flags tainted arguments to serialization calls.
func (df *detFlow) checkCalls(fn *ast.FuncDecl, taints map[string]taintInfo) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := df.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil || !encodingSinkPkgs[obj.Pkg().Path()] {
			return true
		}
		for _, arg := range call.Args {
			if t, ok := df.taintOf(arg, taints); ok {
				df.reportSink(call.Pos(), t, "serialized bytes via "+obj.Pkg().Name()+"."+obj.Name())
				break
			}
		}
		return true
	})
}

// checkSnapshotStores flags tainted stores into //elsa:snapshot struct
// fields — state that persists across resume must be replayable.
func (df *detFlow) checkSnapshotStores(fn *ast.FuncDecl, taints map[string]taintInfo) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, l := range asg.Lhs {
			sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			t := df.pass.TypesInfo.TypeOf(sel.X)
			if t == nil {
				continue
			}
			for {
				if ptr, isPtr := t.(*types.Pointer); isPtr {
					t = ptr.Elem()
					continue
				}
				break
			}
			named, ok := t.(*types.Named)
			if !ok || !df.snapTypes[named.Obj()] {
				continue
			}
			var rhs ast.Expr
			if len(asg.Rhs) == len(asg.Lhs) {
				rhs = asg.Rhs[i]
			} else if len(asg.Rhs) == 1 {
				rhs = asg.Rhs[0]
			}
			if rhs == nil {
				continue
			}
			if ti, tainted := df.taintOf(rhs, taints); tainted {
				df.reportSink(asg.Pos(), ti, "//elsa:snapshot state "+named.Obj().Name()+"."+sel.Sel.Name)
			}
		}
		return true
	})
}
