// Package lint is elsavet: a suite of go/analysis analyzers that turn the
// pipeline's hardest-won properties — zero-allocation hot kernels,
// bit-identical parallel training, cancellable streaming stages, sound
// lock usage — into compile-time contracts instead of benchmark
// aspirations.
//
// The suite ships ten project analyzers, one per contract, plus the
// upstream copylocks analyzer (vendored unmodified from x/tools), which
// flags locks copied by value:
//
//   - elsaalloc: the allocation contract of //elsa:hotpath kernels —
//     constructs that always allocate (append growth, fmt formatting,
//     goroutine launches, implicit interface conversions,
//     string<->[]byte conversions) are flagged, and make, new,
//     composite literals and closures are proven stack-allocatable
//     (non-escaping, constant size) or reported with their concrete
//     escape path; proven functions export an AllocFreeFact.
//   - elsactxflow: in any function that takes a context.Context, every
//     blocking channel operation must live in a select that also waits
//     on ctx.Done() (or have a default case); bare sends, bare
//     receives and channel ranges are flagged.
//   - elsachan: models every channel as a cell with send/recv/close
//     edges — through goroutine closures and struct fields — and flags
//     double-close, close-by-non-owner (ownership = creating scope or
//     an //elsa:chanowner annotation), sends reachable after a close,
//     goroutines whose only exit is a blocking channel op with no
//     guaranteed counterpart and no ctx.Done() select, WaitGroup.Add
//     inside the goroutine it guards, and goroutines launched from
//     cancellable functions with neither a cancellation nor a join path.
//   - elsalockorder: builds the interprocedural lock-acquisition graph
//     (locks held at each acquire, propagated through calls via
//     LockOrderFact/LockGraphFact) and reports any cycle as a
//     potential deadlock with the full acquisition chain.
//   - elsaerrflow: in the serving-path packages (pipeline, ingest,
//     resilience) every err != nil branch must account for the error —
//     return it, quarantine it, or increment a stats counter.
//   - elsasnapshot: the resume-equality guard — every field of a
//     struct marked //elsa:snapshot must be handled by the
//     //elsa:snapshotter encode AND decode paths or annotated
//     //elsa:ephemeral with a reason, and every struct reachable from
//     an //elsa:snapshot-envelope root must not silently drop state
//     through unexported (encoding/json-invisible) fields.
//   - elsaatomic: a field accessed through sync/atomic anywhere in a
//     package (or, via facts, in any importing package) must never
//     also be accessed with plain loads or stores.
//   - elsastate: annotation-declared typestate protocols
//     (//elsa:state on a type, //elsa:transition and //elsa:requires
//     on its methods) verified by a may-state abstract interpreter —
//     no Feed after Close, snapshot-before-retire, breaker state
//     discipline — composing across packages through StateFacts.
//   - elsadetflow: the determinism contract — the training packages
//     (sig, gradual, correlate, predict) must not read wall clocks, use
//     the global math/rand source, or let map iteration order escape
//     into ordered output without a sort; across the serving path,
//     wall-clock, global-rand and iteration/arrival-order values are
//     tracked and reported where they reach prediction output,
//     snapshot/journal bytes or exported stats; //elsa:nondet-ok
//     <reason> is the audited escape hatch for the latter.
//   - elsanolint: audits the //nolint:elsa... escape hatches themselves
//     — every suppression must name known analyzers and carry a reason.
//
// Suppression: a finding is silenced by a //nolint:<name> comment on the
// finding's line or the line above, where <name> is the analyzer name or
// the blanket "elsa". A reason is mandatory, introduced by "//" or "--":
//
//	//nolint:elsaalloc // grows once, then reused across all pairs
//
// The names of analyzers since folded into another stay valid aliases
// of the one that absorbed them: elsahotpath of elsaalloc,
// elsadeterminism of elsadetflow, elsalocksafe of elsachan.
//
// elsanolint rejects reasonless or unknown-name suppressions, so the
// escape hatch cannot silently rot.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/copylock"
)

// Analyzers is the full elsavet suite, in stable order.
var Analyzers = []*analysis.Analyzer{
	AllocAnalyzer,
	CtxFlowAnalyzer,
	ChanAnalyzer,
	LockOrderAnalyzer,
	ErrFlowAnalyzer,
	SnapshotAnalyzer,
	AtomicAnalyzer,
	StateAnalyzer,
	DetFlowAnalyzer,
	NolintAnalyzer,
	copylock.Analyzer,
}

// analyzerNames returns the set of valid //nolint targets. Spelled as a
// literal (not derived from Analyzers) to avoid an initialization cycle
// through NolintAnalyzer. elsahotpath, elsadeterminism and elsalocksafe
// are the aliases of elsaalloc, elsadetflow and elsachan.
func analyzerNames() map[string]bool {
	return map[string]bool{
		"elsa":            true,
		"elsahotpath":     true,
		"elsaalloc":       true,
		"elsadeterminism": true,
		"elsactxflow":     true,
		"elsalocksafe":    true,
		"elsachan":        true,
		"elsalockorder":   true,
		"elsaerrflow":     true,
		"elsasnapshot":    true,
		"elsaatomic":      true,
		"elsastate":       true,
		"elsadetflow":     true,
		"elsanolint":      true,
	}
}

// hotPathDirective is the annotation marking a function as a verified
// allocation-free kernel.
const hotPathDirective = "//elsa:hotpath"

// isHotPath reports whether fn carries the //elsa:hotpath directive in
// its doc comment.
func isHotPath(fn *ast.FuncDecl) bool {
	return hasDirective(fn.Doc, hotPathDirective)
}

// hasDirective reports whether a comment group carries the given
// //elsa:... directive, matched as a whole word so //elsa:snapshot
// does not match //elsa:snapshot-envelope.
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	_, ok := directiveArg(cg, directive)
	return ok
}

// directiveArg returns the text following a directive comment (""
// when the directive stands alone) and whether the directive appears.
func directiveArg(cg *ast.CommentGroup, directive string) (string, bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		if c.Text == directive {
			return "", true
		}
		if strings.HasPrefix(c.Text, directive+" ") {
			return strings.TrimSpace(c.Text[len(directive)+1:]), true
		}
	}
	return "", false
}

// nolintEntry is one parsed //nolint comment.
type nolintEntry struct {
	names  []string // analyzer names listed after the colon
	reason string   // text after the "//" or "--" separator, trimmed
	pos    token.Pos
}

// parseNolint decodes a "//nolint:..." comment, returning ok=false for
// comments that are not nolint directives at all.
func parseNolint(text string) (e nolintEntry, ok bool) {
	const prefix = "//nolint:"
	if !strings.HasPrefix(text, prefix) {
		return e, false
	}
	body := text[len(prefix):]
	// The reason is introduced by a second "//" or a "--".
	if i := strings.Index(body, "//"); i >= 0 {
		e.reason = strings.TrimSpace(body[i+2:])
		body = body[:i]
	} else if i := strings.Index(body, "--"); i >= 0 {
		e.reason = strings.TrimSpace(body[i+2:])
		body = body[:i]
	}
	for _, n := range strings.Split(body, ",") {
		if n = strings.TrimSpace(n); n != "" {
			e.names = append(e.names, n)
		}
	}
	return e, true
}

// suppressor indexes every //nolint comment of the pass by file line. An
// entry on line L suppresses findings on L (inline trailing comment) and
// L+1 (standalone comment above the statement).
type suppressor struct {
	fset    *token.FileSet
	entries map[string]map[int][]nolintEntry // filename -> line -> entries
	aliases []string                         // extra analyzer names accepted as suppressing this pass
}

func newSuppressor(pass *analysis.Pass) *suppressor {
	s := &suppressor{fset: pass.Fset, entries: make(map[string]map[int][]nolintEntry)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				e, ok := parseNolint(c.Text)
				if !ok {
					continue
				}
				e.pos = c.Pos()
				p := pass.Fset.Position(c.Pos())
				byLine := s.entries[p.Filename]
				if byLine == nil {
					byLine = make(map[int][]nolintEntry)
					s.entries[p.Filename] = byLine
				}
				byLine[p.Line] = append(byLine[p.Line], e)
			}
		}
	}
	return s
}

// suppressed reports whether a finding of analyzer name at pos is
// covered by a well-formed nolint entry. Reasonless entries never
// suppress: elsanolint flags them and the original finding stays live.
func (s *suppressor) suppressed(name string, pos token.Pos) bool {
	p := s.fset.Position(pos)
	byLine := s.entries[p.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, e := range byLine[line] {
			if e.reason == "" {
				continue
			}
			for _, n := range e.names {
				if n == name || n == "elsa" {
					return true
				}
				for _, a := range s.aliases {
					if n == a {
						return true
					}
				}
			}
		}
	}
	return false
}

// reporter wraps pass.Reportf with nolint suppression for the pass's own
// analyzer name.
type reporter struct {
	pass *analysis.Pass
	sup  *suppressor
}

func newReporter(pass *analysis.Pass) *reporter {
	return &reporter{pass: pass, sup: newSuppressor(pass)}
}

func (r *reporter) reportf(pos token.Pos, format string, args ...interface{}) {
	if r.sup.suppressed(r.pass.Analyzer.Name, pos) {
		return
	}
	r.pass.Reportf(pos, format, args...)
}

// report is reportf for a fully built diagnostic (used when the
// finding carries SuggestedFixes).
func (r *reporter) report(d analysis.Diagnostic) {
	if r.sup.suppressed(r.pass.Analyzer.Name, d.Pos) {
		return
	}
	r.pass.Report(d)
}

// inTestFile reports whether pos lands in a _test.go file.
func inTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// inPackageList reports whether name is one of the comma-separated
// package names in list.
func inPackageList(list, name string) bool {
	for _, p := range strings.Split(list, ",") {
		if strings.TrimSpace(p) == name {
			return true
		}
	}
	return false
}

// declaredOutside reports whether the storage expression e names is
// declared outside the function literal lit — state a goroutine shares
// with its launcher. e is walked down to its base identifier (s.wg[i]
// → s); a base that is not a resolvable identifier counts as shared.
func declaredOutside(info *types.Info, e ast.Expr, lit *ast.FuncLit) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			obj := objOf(info, x)
			return obj == nil || obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
		default:
			return true
		}
	}
}

// rootString renders the static "path" of an expression (identifiers,
// selectors, indexes stripped of their index) so two mentions of the
// same storage compare equal: `s.out[i]` and `s.out[j]` both render
// "s.out". Unrenderable expressions return "".
func rootString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x := rootString(e.X); x != "" {
			return x + "." + e.Sel.Name
		}
	case *ast.IndexExpr:
		return rootString(e.X)
	case *ast.SliceExpr:
		return rootString(e.X)
	case *ast.StarExpr:
		return rootString(e.X)
	case *ast.ParenExpr:
		return rootString(e.X)
	}
	return ""
}
