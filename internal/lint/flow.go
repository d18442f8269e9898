package lint

// flow.go is the dataflow layer under elsaalloc: a function-scope
// value-flow (escape) analysis over the typed AST. go/ssa is not
// vendored (the toolchain image carries only the unitchecker slice of
// x/tools), so this builds the same verdicts from first principles: an
// allocation site is harmless exactly when the compiler can prove it
// stack-allocatable, i.e. the value provably never escapes the frame
// and its size is a compile-time constant.
//
// The model is a value graph:
//
//   - a *cell* is a storage node: one per local variable (including
//     parameters) and one per allocation site (make, new, composite
//     literal, &composite, closure literal);
//   - an edge A → B ("B holds A") is added for every assignment,
//     keyed-literal element, range copy or capture that can make B's
//     storage reach A's value;
//   - a *sink* marks a cell escaped: returned, sent on a channel,
//     stored through a pointer or into non-local storage, passed to a
//     call or goroutine, or captured by an escaping closure.
//
// Escape propagates from sinks along reverse edges (if the holder
// escapes, so does everything it holds). The analysis is
// flow-insensitive and conservative: anything it cannot resolve to
// tracked cells is treated as escaping, so "proven local" is sound
// while "escapes" may be a false alarm that a reasoned //nolint
// records.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// allocKind classifies an allocation site.
type allocKind int

const (
	allocMakeSlice allocKind = iota
	allocMakeMap
	allocMakeChan
	allocNew
	allocSliceLit
	allocMapLit
	allocPtrLit // &T{...}
	allocClosure
)

func (k allocKind) String() string {
	switch k {
	case allocMakeSlice:
		return "make([]T)"
	case allocMakeMap:
		return "make(map)"
	case allocMakeChan:
		return "make(chan)"
	case allocNew:
		return "new"
	case allocSliceLit:
		return "slice literal"
	case allocMapLit:
		return "map literal"
	case allocPtrLit:
		return "&composite literal"
	case allocClosure:
		return "closure"
	}
	return "alloc"
}

// maxStackAlloc mirrors the compiler's bound on implicit stack
// allocation of non-escaping values (cmd/compile's maxImplicitStackVarSize).
const maxStackAlloc = 64 << 10

// cell is one storage node of the value graph.
type cell struct {
	obj   types.Object // local variable, nil for allocation sites
	site  *allocSite   // non-nil for allocation-site cells
	label string       // diagnostic name for cells with neither (address-of pointers)

	held []*cell // cells whose values this cell's storage can reach

	// opaque marks a cell that may carry references to storage the
	// analysis cannot see — parameters, receivers, closure parameters,
	// and locals assigned from untracked sources. A write through an
	// opaque cell escapes the written value.
	opaque bool

	escaped bool
	sink    string    // first escape reason, for diagnostics
	sinkPos token.Pos // where the escape happens
}

// allocSite is one allocation expression inside the analyzed function.
type allocSite struct {
	node     ast.Node
	kind     allocKind
	cell     *cell
	captures []types.Object // closure sites: variables captured from the frame
	constLen int64          // slice sites: element count when constant, else -1
}

// addrCell tracks one &x pointer value whose target is a variable's
// own frame storage (no pointer hop between the & and the variable).
// The pointer cell holds the variable, so the variable escapes with
// the pointer — and when the pointer cell escapes, the compiler moves
// the variable to the heap: an allocation with no make/new/literal
// site of its own, which elsaalloc reports from here. A plain value
// read of the variable (return x) never escapes this cell, keeping
// value escape distinct from storage escape.
type addrCell struct {
	cell *cell
	base *cell     // the addressed frame variable
	pos  token.Pos // the & expression
}

// funcFlow is the per-function analysis state.
type funcFlow struct {
	pass  *analysis.Pass
	fn    *ast.FuncDecl
	cells map[types.Object]*cell
	sites []*allocSite
	addrs []*addrCell
}

// analyzeFlow builds the value graph of fn's body and runs escape
// propagation. fn.Body must be non-nil.
func analyzeFlow(pass *analysis.Pass, fn *ast.FuncDecl) *funcFlow {
	f := &funcFlow{pass: pass, fn: fn, cells: make(map[types.Object]*cell)}
	// Named results escape by construction: every value assigned to one
	// is returned.
	f.escapeNamedResults(fn.Type)
	// Parameters and the receiver point at caller storage.
	f.markOpaqueParams(fn.Recv)
	f.markOpaqueParams(fn.Type.Params)
	f.scanStmt(fn.Body)
	f.propagate()
	return f
}

// escapeNamedResults pre-escapes the named results of a function or
// literal: every value assigned to one is returned.
func (f *funcFlow) escapeNamedResults(ft *ast.FuncType) {
	if ft.Results == nil {
		return
	}
	for _, fld := range ft.Results.List {
		for _, name := range fld.Names {
			if c := f.cellFor(f.pass.TypesInfo.Defs[name]); c != nil {
				c.escaped, c.sink, c.sinkPos = true, "assigned to named result "+name.Name, name.Pos()
			}
		}
	}
}

// markOpaqueParams creates opaque cells for a parameter list.
func (f *funcFlow) markOpaqueParams(fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, fld := range fl.List {
		for _, name := range fld.Names {
			if c := f.cellFor(f.pass.TypesInfo.Defs[name]); c != nil {
				c.opaque = true
			}
		}
	}
}

// cellFor returns (creating on demand) the cell of a frame-local
// object, or nil for anything not local to the analyzed function.
func (f *funcFlow) cellFor(obj types.Object) *cell {
	if obj == nil {
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if c, ok := f.cells[obj]; ok {
		return c
	}
	// Frame-local: declared within the analyzed function's extent
	// (parameters, results, locals — including locals of nested
	// literals, which share the frame until they escape).
	if obj.Pos() < f.fn.Pos() || obj.Pos() > f.fn.End() {
		return nil
	}
	c := &cell{obj: obj}
	f.cells[obj] = c
	return c
}

// escape marks every cell of cs escaped for the given reason.
func (f *funcFlow) escape(cs []*cell, pos token.Pos, reason string) {
	for _, c := range cs {
		f.escapeCell(c, pos, reason)
	}
}

func (f *funcFlow) escapeCell(c *cell, pos token.Pos, reason string) {
	if c == nil || c.escaped {
		return
	}
	c.escaped, c.sink, c.sinkPos = true, reason, pos
}

// propagate closes the escape set: a held value escapes with its
// holder. Iterates to a fixed point (the graph is tiny per function).
func (f *funcFlow) propagate() {
	for changed := true; changed; {
		changed = false
		for _, c := range f.allCells() {
			if !c.escaped {
				continue
			}
			for _, h := range c.held {
				if !h.escaped {
					via := "storage it was placed in escapes"
					if c.obj != nil {
						via = fmt.Sprintf("%s escapes (%s)", c.obj.Name(), c.sink)
					} else if c.site != nil {
						via = fmt.Sprintf("holding %s escapes (%s)", c.site.kind, c.sink)
					} else if c.label != "" {
						via = fmt.Sprintf("%s escapes (%s)", c.label, c.sink)
					}
					f.escapeCell(h, c.sinkPos, via)
					changed = true
				}
			}
		}
	}
}

func (f *funcFlow) allCells() []*cell {
	out := make([]*cell, 0, len(f.cells)+len(f.sites)+len(f.addrs))
	for _, s := range f.sites {
		out = append(out, s.cell)
	}
	for _, a := range f.addrs {
		out = append(out, a.cell)
	}
	for _, c := range f.cells {
		out = append(out, c)
	}
	return out
}

// ---- statement walk ----

func (f *funcFlow) scanStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			f.scanStmt(st)
		}
	case *ast.ExprStmt:
		f.scanExpr(s.X)
	case *ast.AssignStmt:
		f.scanAssign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				switch {
				case len(vs.Values) == len(vs.Names):
					for i, name := range vs.Names {
						f.link(f.scanExpr(vs.Values[i]), f.cellFor(f.pass.TypesInfo.Defs[name]), name.Pos())
					}
				case len(vs.Values) == 0:
					// Zero value: holds nothing, stays transparent.
					for _, name := range vs.Names {
						f.cellFor(f.pass.TypesInfo.Defs[name])
					}
				default:
					// var a, b = f(): results are untracked.
					for _, v := range vs.Values {
						f.scanExpr(v)
					}
					for _, name := range vs.Names {
						f.markUntracked(f.cellFor(f.pass.TypesInfo.Defs[name]))
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			f.escape(f.scanExpr(r), r.Pos(), "returned")
		}
	case *ast.SendStmt:
		f.scanExpr(s.Chan)
		f.escape(f.scanExpr(s.Value), s.Value.Pos(), "sent on a channel")
	case *ast.GoStmt:
		f.scanCallEscaping(s.Call, "passed to a goroutine")
	case *ast.DeferStmt:
		f.scanCallEscaping(s.Call, "captured by defer")
	case *ast.IfStmt:
		f.scanStmt(s.Init)
		f.scanExpr(s.Cond)
		f.scanStmt(s.Body)
		f.scanStmt(s.Else)
	case *ast.ForStmt:
		f.scanStmt(s.Init)
		if s.Cond != nil {
			f.scanExpr(s.Cond)
		}
		f.scanStmt(s.Post)
		f.scanStmt(s.Body)
	case *ast.RangeStmt:
		src := f.scanExpr(s.X)
		// Element/key copies can carry pointers held by the container.
		for _, lhs := range []ast.Expr{s.Key, s.Value} {
			if lhs != nil {
				f.assignTo(lhs, src)
			}
		}
		f.scanStmt(s.Body)
	case *ast.SwitchStmt:
		f.scanStmt(s.Init)
		if s.Tag != nil {
			f.scanExpr(s.Tag)
		}
		f.scanStmt(s.Body)
	case *ast.TypeSwitchStmt:
		f.scanStmt(s.Init)
		f.scanStmt(s.Assign)
		f.scanStmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			f.scanExpr(e)
		}
		for _, st := range s.Body {
			f.scanStmt(st)
		}
	case *ast.SelectStmt:
		f.scanStmt(s.Body)
	case *ast.CommClause:
		f.scanStmt(s.Comm)
		for _, st := range s.Body {
			f.scanStmt(st)
		}
	case *ast.LabeledStmt:
		f.scanStmt(s.Stmt)
	case *ast.IncDecStmt:
		f.scanExpr(s.X)
	default:
		// BranchStmt, EmptyStmt: nothing flows.
	}
}

// scanAssign wires one (possibly parallel) assignment.
func (f *funcFlow) scanAssign(s *ast.AssignStmt) {
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			f.assignTo(s.Lhs[i], f.scanExpr(s.Rhs[i]))
		}
		return
	}
	// Tuple form: x, y := f() — call results are not tracked sites, but
	// the RHS still needs scanning for nested allocations and calls.
	for _, r := range s.Rhs {
		f.scanExpr(r)
	}
	for _, l := range s.Lhs {
		f.assignTo(l, nil)
	}
}

// assignTo routes rhs cells into the storage the lvalue denotes: a
// direct edge when the storage is a frame cell (a variable, or a field
// of a struct value held in one), a deref-write when the assignment
// goes through a pointer, slice or map (the storage may be shared),
// and an escape for anything non-local.
func (f *funcFlow) assignTo(lhs ast.Expr, rhs []*cell) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		if c := f.cellFor(objOf(f.pass.TypesInfo, l)); c != nil {
			f.link(rhs, c, l.Pos())
		} else {
			f.escape(rhs, l.Pos(), "stored to package-level "+l.Name)
		}
	case *ast.ParenExpr:
		f.assignTo(l.X, rhs)
	case *ast.StarExpr:
		f.derefWrite(f.scanExpr(l.X), rhs, l.Pos())
	case *ast.SelectorExpr:
		if t := f.pass.TypesInfo.TypeOf(l.X); t != nil {
			if _, ok := t.Underlying().(*types.Pointer); ok {
				f.derefWrite(f.scanExpr(l.X), rhs, l.Pos())
				return
			}
		}
		// Field of a struct value: same storage as the base.
		f.assignTo(l.X, rhs)
	case *ast.IndexExpr:
		f.scanExpr(l.Index)
		if t := f.pass.TypesInfo.TypeOf(l.X); t != nil {
			if _, ok := t.Underlying().(*types.Array); ok {
				f.assignTo(l.X, rhs)
				return
			}
		}
		// Slice, map or *array element: the backing storage may be shared.
		f.derefWrite(f.scanExpr(l.X), rhs, l.Pos())
	default:
		f.escape(rhs, lhs.Pos(), "stored to "+exprString(lhs))
	}
}

// derefWrite routes rhs into storage reached through a pointer, slice
// or map value. Tracked targets (allocation sites, frame variables the
// base may alias) receive hold edges; an opaque or unresolved base
// escapes the written value — the storage may belong to a caller.
func (f *funcFlow) derefWrite(base, rhs []*cell, pos token.Pos) {
	if len(base) == 0 {
		f.escape(rhs, pos, "stored through an untracked pointer")
		return
	}
	seen := make(map[*cell]bool)
	var walk func(c *cell)
	walk = func(c *cell) {
		if c == nil || seen[c] {
			return
		}
		seen[c] = true
		if c.opaque {
			f.escape(rhs, pos, "stored into caller-visible storage")
		}
		held := append([]*cell(nil), c.held...) // snapshot before linking rhs in
		f.link(rhs, c, pos)
		if c.site == nil {
			// Variable cell: an alias, not storage of its own — follow
			// everything it may point at.
			for _, h := range held {
				walk(h)
			}
		}
	}
	for _, c := range base {
		walk(c)
	}
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// link adds "to holds each of from". An empty from with a
// reference-carrying destination marks the cell opaque: the RHS
// resolved to nothing we track, so the variable may now alias storage
// the analysis cannot see.
func (f *funcFlow) link(from []*cell, to *cell, pos token.Pos) {
	if to == nil {
		f.escape(from, pos, "stored to untracked storage")
		return
	}
	if len(from) == 0 {
		f.markUntracked(to)
		return
	}
	for _, c := range from {
		if c != nil && c != to {
			to.held = append(to.held, c)
		}
	}
}

// markUntracked flags a variable cell whose value came from a source
// the analysis cannot see (a call result, a read of caller storage).
func (f *funcFlow) markUntracked(c *cell) {
	if c != nil && c.obj != nil && canCarryRefs(c.obj.Type()) {
		c.opaque = true
	}
}

// canCarryRefs reports whether a value of type t can hold references
// (pointers, slices, maps, chans, funcs, interfaces) — i.e. whether
// reading or storing it can move tracked cells around.
func canCarryRefs(t types.Type) bool {
	return carryRefs(t, make(map[types.Type]bool))
}

func carryRefs(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		// Strings share backing storage but it is immutable: nothing can
		// be stored through one.
		return false
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carryRefs(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	case *types.Array:
		return carryRefs(u.Elem(), seen)
	default:
		// Pointer, slice, map, chan, func, interface — and anything
		// unknown, conservatively.
		return true
	}
}

// ---- expression walk ----

// scanExpr processes one expression tree exactly once: it registers
// allocation sites, applies call-argument escapes, and returns the
// cells the expression's value may carry.
func (f *funcFlow) scanExpr(e ast.Expr) []*cell {
	switch e := e.(type) {
	case nil:
		return nil
	case *ast.Ident:
		if c := f.cellFor(objOf(f.pass.TypesInfo, e)); c != nil {
			return []*cell{c}
		}
		return nil
	case *ast.ParenExpr:
		return f.scanExpr(e.X)
	case *ast.SelectorExpr:
		// Reading x.f: the value read may be anything x's storage holds —
		// unless its type cannot carry references at all.
		return f.refGate(e, f.scanExpr(e.X))
	case *ast.IndexExpr:
		f.scanExpr(e.Index)
		return f.refGate(e, f.scanExpr(e.X))
	case *ast.IndexListExpr:
		for _, idx := range e.Indices {
			f.scanExpr(idx)
		}
		return f.refGate(e, f.scanExpr(e.X))
	case *ast.SliceExpr:
		for _, idx := range []ast.Expr{e.Low, e.High, e.Max} {
			if idx != nil {
				f.scanExpr(idx)
			}
		}
		return f.scanExpr(e.X)
	case *ast.StarExpr:
		return f.refGate(e, f.scanExpr(e.X))
	case *ast.TypeAssertExpr:
		return f.refGate(e, f.scanExpr(e.X))
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				return []*cell{f.addSite(e, allocPtrLit, f.litElems(cl), -1).cell}
			}
			// &lvalue: a pointer into storage. Resolve the addressed base
			// without the value-type refGate — &xs[i] of a []int still
			// points into xs's backing array even though an int element
			// carries no references — so the container's cells ride the
			// pointer and escape with it. When the address lands in a
			// frame variable's own storage, the pointer gets a cell of
			// its own: its escape heap-moves the variable.
			cells, direct := f.scanAddr(e.X)
			if !direct {
				return cells
			}
			out := make([]*cell, 0, len(cells))
			for _, c := range cells {
				if c.obj == nil {
					out = append(out, c)
					continue
				}
				ac := &addrCell{cell: &cell{label: "&" + exprString(e.X), held: []*cell{c}}, base: c, pos: e.Pos()}
				f.addrs = append(f.addrs, ac)
				out = append(out, ac.cell)
			}
			return out
		}
		return f.scanExpr(e.X)
	case *ast.BinaryExpr:
		f.scanExpr(e.X)
		f.scanExpr(e.Y)
		return nil
	case *ast.KeyValueExpr:
		f.scanExpr(e.Key)
		return f.scanExpr(e.Value)
	case *ast.CompositeLit:
		elems := f.litElems(e)
		switch f.pass.TypesInfo.TypeOf(e).Underlying().(type) {
		case *types.Slice:
			n := int64(len(e.Elts))
			site := f.addSite(e, allocSliceLit, elems, n)
			return []*cell{site.cell}
		case *types.Map:
			site := f.addSite(e, allocMapLit, elems, -1)
			return []*cell{site.cell}
		default:
			// Array or struct value: no allocation of its own; its copy
			// carries whatever its elements carry.
			return elems
		}
	case *ast.FuncLit:
		site := f.addSite(e, allocClosure, nil, -1)
		f.scanClosure(e, site)
		return []*cell{site.cell}
	case *ast.CallExpr:
		return f.scanCall(e)
	}
	return nil
}

// scanAddr resolves the cells behind the operand of an address-of
// expression by walking the l-value structure (ident, field select,
// index, deref) with no refGate: the gate reasons about the *value*
// read, but a pointer into a container reaches the container's storage
// regardless of what the element type can carry. direct reports
// whether the chain stayed inside the variable's own frame storage
// (no pointer, slice or map hop): only then does an escaping pointer
// move the variable itself to the heap.
func (f *funcFlow) scanAddr(e ast.Expr) (cells []*cell, direct bool) {
	switch e := e.(type) {
	case *ast.Ident:
		if c := f.cellFor(objOf(f.pass.TypesInfo, e)); c != nil {
			return []*cell{c}, true
		}
		return nil, false
	case *ast.ParenExpr:
		return f.scanAddr(e.X)
	case *ast.SelectorExpr:
		if t := f.pass.TypesInfo.TypeOf(e.X); t != nil {
			if _, ok := t.Underlying().(*types.Pointer); ok {
				// &p.f: the address lands in p's pointee, not the frame.
				return f.scanExpr(e.X), false
			}
		}
		return f.scanAddr(e.X)
	case *ast.IndexExpr:
		f.scanExpr(e.Index)
		if t := f.pass.TypesInfo.TypeOf(e.X); t != nil {
			if _, ok := t.Underlying().(*types.Array); ok {
				return f.scanAddr(e.X)
			}
		}
		// Slice or *array element: the address points into the backing
		// storage the base value references.
		return f.scanExpr(e.X), false
	case *ast.StarExpr:
		// &*p is p: whatever p carries.
		return f.scanExpr(e.X), false
	default:
		return f.scanExpr(e), false
	}
}

// refGate drops the carried cells of a read whose result type cannot
// hold references: returning xs[0] of a []int does not escape xs.
func (f *funcFlow) refGate(e ast.Expr, cs []*cell) []*cell {
	if !canCarryRefs(f.pass.TypesInfo.TypeOf(e)) {
		return nil
	}
	return cs
}

// litElems scans a composite literal's elements and collects their
// cells: the literal's storage holds them.
func (f *funcFlow) litElems(cl *ast.CompositeLit) []*cell {
	var out []*cell
	for _, el := range cl.Elts {
		out = append(out, f.scanExpr(el)...)
	}
	return out
}

// addSite registers an allocation site and its cell; elems are cells
// the new storage holds.
func (f *funcFlow) addSite(n ast.Node, kind allocKind, elems []*cell, constLen int64) *allocSite {
	site := &allocSite{node: n, kind: kind, constLen: constLen}
	site.cell = &cell{site: site, held: elems}
	f.sites = append(f.sites, site)
	return site
}

// scanClosure records the frame variables a closure captures and scans
// its body in the shared frame: captured variables are held by the
// closure cell, so they escape if the closure does.
func (f *funcFlow) scanClosure(fl *ast.FuncLit, site *allocSite) {
	// The literal's own parameters receive caller values once it runs;
	// its named results are returned from it.
	f.markOpaqueParams(fl.Type.Params)
	f.escapeNamedResults(fl.Type)
	seen := make(map[types.Object]bool)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := f.pass.TypesInfo.Uses[id]
		if obj == nil || seen[obj] {
			return true
		}
		// Captured: declared in the enclosing frame, outside the literal.
		if obj.Pos() >= f.fn.Pos() && obj.Pos() <= f.fn.End() &&
			(obj.Pos() < fl.Pos() || obj.Pos() > fl.End()) {
			if c := f.cellFor(obj); c != nil {
				seen[obj] = true
				site.captures = append(site.captures, obj)
				site.cell.held = append(site.cell.held, c)
			}
		}
		return true
	})
	f.scanStmt(fl.Body)
}

// scanCall processes a call expression. Arguments handed to an
// ordinary call escape (the callee may retain them); builtins and
// conversions route flow instead.
func (f *funcFlow) scanCall(call *ast.CallExpr) []*cell {
	info := f.pass.TypesInfo
	// Type conversion: value flows through.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return f.scanExpr(call.Args[0])
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return f.scanBuiltin(call, b.Name())
		}
	}
	// make/new reached via builtin path above only for ident form; the
	// remaining case is an ordinary (or method) call.
	var out []*cell
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		// Method call: the receiver's storage is exposed to the callee.
		f.escape(f.scanExpr(fun.X), fun.Pos(), "receiver of call to "+fun.Sel.Name)
	case *ast.FuncLit:
		// Directly invoked literal: runs in place, nothing retained.
		site := f.addSite(fun, allocClosure, nil, -1)
		f.scanClosure(fun, site)
	default:
		// Calling a func value held in a local does not make it escape.
		f.scanExpr(call.Fun)
	}
	for _, arg := range call.Args {
		f.escape(f.scanExpr(arg), arg.Pos(), "passed to "+exprString(call.Fun))
	}
	return out
}

// scanBuiltin models the builtins that either allocate or route flow.
func (f *funcFlow) scanBuiltin(call *ast.CallExpr, name string) []*cell {
	switch name {
	case "make":
		for _, a := range call.Args[1:] {
			f.scanExpr(a)
		}
		t := f.pass.TypesInfo.TypeOf(call).Underlying()
		switch t.(type) {
		case *types.Slice:
			return []*cell{f.addSite(call, allocMakeSlice, nil, f.makeConstLen(call)).cell}
		case *types.Map:
			return []*cell{f.addSite(call, allocMakeMap, nil, -1).cell}
		case *types.Chan:
			return []*cell{f.addSite(call, allocMakeChan, nil, -1).cell}
		}
		return nil
	case "new":
		return []*cell{f.addSite(call, allocNew, nil, -1).cell}
	case "append":
		// The result carries both the (possibly reused) backing array of
		// the first argument and every appended value. The growth
		// allocation itself is the syntactic layer's finding
		// (checkHotCall), not a site here.
		var out []*cell
		for _, a := range call.Args {
			out = append(out, f.scanExpr(a)...)
		}
		return out
	case "copy", "delete", "clear", "len", "cap", "min", "max",
		"real", "imag", "complex", "print", "println", "recover":
		// Scan operands; none of these retain their arguments beyond the
		// call (copy is shallow: pointers move between slices the caller
		// already owns or tracks).
		var out []*cell
		for _, a := range call.Args {
			out = append(out, f.scanExpr(a)...)
		}
		if name == "copy" || name == "delete" || name == "clear" ||
			name == "len" || name == "cap" || name == "print" || name == "println" {
			return nil
		}
		return out
	case "panic":
		for _, a := range call.Args {
			f.escape(f.scanExpr(a), a.Pos(), "passed to panic")
		}
		return nil
	}
	for _, a := range call.Args {
		f.scanExpr(a)
	}
	return nil
}

// scanCallEscaping handles go/defer: the function value and all
// arguments outlive the statement.
func (f *funcFlow) scanCallEscaping(call *ast.CallExpr, reason string) {
	f.escape(f.scanExpr(call.Fun), call.Pos(), reason)
	for _, arg := range call.Args {
		f.escape(f.scanExpr(arg), arg.Pos(), reason)
	}
}

// makeConstLen returns the constant element count of a make([]T, ...)
// call, or -1 when any size argument is not a compile-time constant.
func (f *funcFlow) makeConstLen(call *ast.CallExpr) int64 {
	max := int64(0)
	for _, a := range call.Args[1:] {
		tv, ok := f.pass.TypesInfo.Types[a]
		if !ok || tv.Value == nil {
			return -1
		}
		v, ok := constInt64(tv)
		if !ok {
			return -1
		}
		if v > max {
			max = v
		}
	}
	return max
}

// constInt64 extracts an int64 from a constant expression value.
func constInt64(tv types.TypeAndValue) (int64, bool) {
	if tv.Value == nil {
		return 0, false
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	return v, ok
}

// exprString renders a short form of an expression for diagnostics.
func exprString(e ast.Expr) string {
	if s := rootString(e); s != "" {
		return s
	}
	switch e.(type) {
	case *ast.CompositeLit:
		return "composite literal"
	case *ast.FuncLit:
		return "func literal"
	case *ast.CallExpr:
		return "call result"
	}
	return "expression"
}
