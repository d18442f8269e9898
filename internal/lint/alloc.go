package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// AllocAnalyzer enforces the //elsa:hotpath allocation contract in one
// walk per kernel, at two depths:
//
//   - syntactic: constructs that cost an allocation no matter what
//     escape analysis concludes — append growth, fmt formatting,
//     goroutine launches, string<->[]byte conversions and implicit
//     concrete→interface boxing — are always flagged;
//   - dataflow: the allocation sites the compiler may optimize away
//     (make, new, composite literals, closures) are accepted exactly
//     when the value provably never escapes the frame and its size is
//     a compile-time constant — the same conditions under which the
//     compiler stack-allocates it — and flagged with the concrete
//     escape path otherwise.
//
// A function whose body is proven free of heap allocation sites
// exports an AllocFreeFact, so the proof is visible to analysis of
// importing packages under go vet's facts pipeline.
//
// The syntactic checks were once a separate analyzer, elsahotpath;
// //nolint:elsahotpath stays an accepted alias for //nolint:elsaalloc.
var AllocAnalyzer = &analysis.Analyzer{
	Name: "elsaalloc",
	Doc: "in //elsa:hotpath functions, report constructs that always allocate (append growth, fmt calls, " +
		"goroutine launches, interface boxing, string<->[]byte conversions) and prove the remaining " +
		"allocation sites stack-allocatable (non-escaping, constant size) or report their escape path",
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{(*AllocFreeFact)(nil)},
	Run:       runAlloc,
}

// AllocFreeFact marks a function proven free of per-call heap
// allocation sites by the flow layer.
type AllocFreeFact struct{}

func (*AllocFreeFact) AFact()         {}
func (*AllocFreeFact) String() string { return "allocfree" }

func runAlloc(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	rep := newReporter(pass)
	rep.sup.aliases = []string{"elsahotpath"}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if !isHotPath(fn) || fn.Body == nil {
			return
		}
		obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
		var sig *types.Signature
		if obj != nil {
			sig = obj.Type().(*types.Signature)
		}
		checkHotScope(pass, rep, fn.Body, sig)
		flow := analyzeFlow(pass, fn)
		clean := true
		for _, site := range flow.sites {
			if d, fix := allocVerdict(pass, site); d != "" {
				clean = false
				diag := analysis.Diagnostic{Pos: site.node.Pos(), Message: d}
				if fix != nil {
					diag.SuggestedFixes = []analysis.SuggestedFix{*fix}
				}
				rep.report(diag)
			}
		}
		// A variable whose address escapes is moved to the heap — an
		// allocation with no make/new/literal site of its own.
		for _, ac := range heapMovedLocals(flow) {
			clean = false
			p := pass.Fset.Position(ac.cell.sinkPos)
			rep.reportf(ac.pos, "alloc: %s escapes (%s at line %d), moving %s to the heap; it allocates per call",
				ac.cell.label, ac.cell.sink, p.Line, ac.base.obj.Name())
		}
		if clean {
			if obj != nil && obj.Exported() {
				pass.ExportObjectFact(obj, &AllocFreeFact{})
			}
		}
	})
	return nil, nil
}

// heapMovedLocals returns the escaping address-of cells, one per
// addressed variable (the first escaping & in source order wins).
// Only the pointer cell's escape counts: a plain value return of the
// variable marks the variable's own cell escaped without heap-moving
// its storage.
func heapMovedLocals(flow *funcFlow) []*addrCell {
	var out []*addrCell
	seen := make(map[types.Object]bool)
	addrs := append([]*addrCell(nil), flow.addrs...)
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].pos < addrs[j].pos })
	for _, ac := range addrs {
		if ac.cell.escaped && !seen[ac.base.obj] {
			seen[ac.base.obj] = true
			out = append(out, ac)
		}
	}
	return out
}

// allocVerdict decides one allocation site: "" when proven
// stack-allocatable, a diagnostic otherwise.
func allocVerdict(pass *analysis.Pass, site *allocSite) (string, *analysis.SuggestedFix) {
	c := site.cell
	where := func() string {
		if c.sinkPos.IsValid() {
			p := pass.Fset.Position(c.sinkPos)
			return fmt.Sprintf("%s at line %d", c.sink, p.Line)
		}
		return c.sink
	}
	switch site.kind {
	case allocMakeMap, allocMapLit:
		return fmt.Sprintf("alloc: %s in a hotpath kernel is not provably allocation-free "+
			"(map storage is heap-allocated); hoist it into reusable scratch state", site.kind), nil
	case allocMakeChan:
		return "alloc: make(chan) in a hotpath kernel allocates; channels belong to setup, not the per-call path", nil
	case allocClosure:
		if !c.escaped {
			return "", nil // non-escaping closures are stack-allocated
		}
		msg := fmt.Sprintf("alloc: closure escapes (%s) and heap-allocates per call", where())
		if len(site.captures) > 0 {
			names := make([]string, 0, len(site.captures))
			for _, o := range site.captures {
				names = append(names, o.Name())
			}
			sort.Strings(names)
			msg += fmt.Sprintf("; it captures %s by reference", strings.Join(names, ", "))
		}
		return msg, nil
	case allocMakeSlice, allocSliceLit:
		if c.escaped {
			return fmt.Sprintf("alloc: %s escapes (%s) and heap-allocates per call", site.kind, where()), nil
		}
		if site.constLen < 0 {
			return fmt.Sprintf("alloc: %s has a non-constant size, so it heap-allocates "+
				"even though it does not escape; use a fixed-size or reusable buffer", site.kind), nil
		}
		if size := siteByteSize(pass, site); size > maxStackAlloc {
			return fmt.Sprintf("alloc: %s is %d bytes, past the %d-byte stack-allocation bound",
				site.kind, size, maxStackAlloc), nil
		}
		return "", nil
	case allocNew, allocPtrLit:
		if c.escaped {
			return fmt.Sprintf("alloc: %s escapes (%s) and heap-allocates per call", site.kind, where()), nil
		}
		if size := siteByteSize(pass, site); size > maxStackAlloc {
			return fmt.Sprintf("alloc: %s is %d bytes, past the %d-byte stack-allocation bound",
				site.kind, size, maxStackAlloc), nil
		}
		return "", nil
	}
	return "", nil
}

// siteByteSize computes the byte size a site would occupy on the
// stack: element size × constant length for slices, pointee size for
// new/&T{}.
func siteByteSize(pass *analysis.Pass, site *allocSite) int64 {
	e, ok := site.node.(ast.Expr)
	if !ok {
		return 0
	}
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return 0
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		if site.constLen < 0 {
			return 0
		}
		return pass.TypesSizes.Sizeof(u.Elem()) * site.constLen
	case *types.Pointer:
		return pass.TypesSizes.Sizeof(u.Elem())
	}
	return pass.TypesSizes.Sizeof(t)
}

// checkHotScope checks one function body against its own signature.
// Nested func literals recurse with the literal's signature, so each
// return statement pairs with its innermost enclosing function — a
// closure returning int inside a kernel returning any is not a boxing
// site, and boxing inside the closure is judged against the closure's
// results.
func checkHotScope(pass *analysis.Pass, rep *reporter, body *ast.BlockStmt, sig *types.Signature) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lsig, _ := pass.TypesInfo.TypeOf(n).(*types.Signature)
			checkHotScope(pass, rep, n.Body, lsig)
			return false
		case *ast.CallExpr:
			checkHotCall(pass, rep, n)
		case *ast.GoStmt:
			rep.reportf(n.Pos(), "hotpath: goroutine launch allocates a stack")
		case *ast.ReturnStmt:
			checkReturnBoxing(pass, rep, sig, n)
		}
		checkIfaceConv(pass, rep, n)
		return true
	})
}

// checkHotCall flags builtin and fmt calls that allocate.
func checkHotCall(pass *analysis.Pass, rep *reporter, call *ast.CallExpr) {
	info := pass.TypesInfo
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok && b.Name() == "append" {
			rep.reportf(call.Pos(), "hotpath: append may grow and allocate; preallocate in a scratch buffer")
		}
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			rep.reportf(call.Pos(), "hotpath: fmt.%s allocates (formatting boxes every operand)", obj.Name())
		}
	}
	// Conversion between string and []byte/[]rune copies.
	if len(call.Args) == 1 {
		if to, ok := info.Types[call.Fun]; ok && to.IsType() {
			from := info.TypeOf(call.Args[0])
			if from != nil && isStringBytesConv(to.Type, from) {
				rep.reportf(call.Pos(), "hotpath: %s conversion copies", types.TypeString(to.Type, types.RelativeTo(pass.Pkg)))
			}
		}
	}
}

func isStringBytesConv(to, from types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	return (isStr(to) && isByteSlice(from)) || (isByteSlice(to) && isStr(from))
}

// checkReturnBoxing flags returns whose result slot is an interface
// fed a concrete value — boxing the enclosing function's return path.
func checkReturnBoxing(pass *analysis.Pass, rep *reporter, sig *types.Signature, ret *ast.ReturnStmt) {
	if sig == nil {
		return
	}
	results := sig.Results()
	if results.Len() != len(ret.Results) {
		return // naked return or tuple-splitting call; nothing to pair up
	}
	for i, e := range ret.Results {
		flagIfaceConv(pass, rep, e, results.At(i).Type())
	}
}

// flagIfaceConv reports e if assigning it to type to boxes a concrete
// value into an interface.
func flagIfaceConv(pass *analysis.Pass, rep *reporter, e ast.Expr, to types.Type) {
	if e == nil || to == nil || !types.IsInterface(to) {
		return
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil || types.IsInterface(tv.Type) || tv.IsNil() {
		return
	}
	rep.reportf(e.Pos(), "hotpath: implicit conversion of %s to interface %s allocates",
		types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)),
		types.TypeString(to, types.RelativeTo(pass.Pkg)))
}

// checkIfaceConv flags implicit concrete-to-interface conversions in
// call arguments and assignments — each one boxes its operand.
func checkIfaceConv(pass *analysis.Pass, rep *reporter, n ast.Node) {
	info := pass.TypesInfo
	switch n := n.(type) {
	case *ast.CallExpr:
		sig, ok := info.TypeOf(n.Fun).(*types.Signature)
		if !ok {
			return // conversion or builtin; builtins like append don't box
		}
		params := sig.Params()
		for i, arg := range n.Args {
			var pt types.Type
			if sig.Variadic() && i >= params.Len()-1 {
				if n.Ellipsis.IsValid() {
					continue // passing a slice through ... doesn't box per element
				}
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			} else if i < params.Len() {
				pt = params.At(i).Type()
			}
			flagIfaceConv(pass, rep, arg, pt)
		}
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			return
		}
		for i := range n.Lhs {
			flagIfaceConv(pass, rep, n.Rhs[i], info.TypeOf(n.Lhs[i]))
		}
	}
}
