package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetFlow is the flow-sensitive complement to detorder: instead of
// judging each map-range body in isolation, it tracks map-iteration
// order as a taint through the function's CFG and reports only when
// tainted data actually reaches output — a return value, a channel
// send, or a formatting/encoding/IO call — without passing a sort
// barrier first. It has no heap-store or call-argument sinks (an
// append to a field, a global or through a pointer, a store into a
// slice parameter, a callback called with the key), and no check for
// a loop exit that depends on the first element; detorder flags those.
//
// Sources: the key/value variables of a range over a map (or over an
// already-tainted sequence), and maps.Keys/maps.Values results.
// Propagation: assignments and appends whose right-hand side mentions
// a tainted value taint their targets; commutative numeric
// accumulation (`n += v`, counters) and comparisons stay clean, since
// their results are order-independent. Barriers: passing the value to
// a sort or slices ordering call kills its taint (and a clean
// reassignment kills it too — strong updates).
//
// The flow-sensitivity matters for the case detorder structurally
// cannot see: a slice sorted once and then appended to from a second
// map range is ordered garbage again, but detorder's collect-then-sort
// whitelist accepts it because *a* sort call exists in the function.
// detflow tracks the re-taint and reports at the sink.
var DetFlow = &Analyzer{
	Name: "detflow",
	Doc:  "flags map-iteration order flowing to output without a sort barrier",
	Run:  runDetFlow,
}

func runDetFlow(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					detflowFunc(pass, d.Body)
				}
			case *ast.FuncLit:
				detflowFunc(pass, d.Body)
			}
			return true
		})
	}
}

func detflowFunc(pass *Pass, body *ast.BlockStmt) {
	d := &detflowState{pass: pass, pkg: pass.Pkg}
	c := buildCFG(body)
	forwardFlow(c, flowFact{}, d.transfer)
}

type detflowState struct {
	pass *Pass
	pkg  *Package
}

// transfer interprets one block: range headers introduce taint,
// assignments propagate or kill it, sinks report it.
func (d *detflowState) transfer(b *cfgBlock, in flowFact, report bool) flowFact {
	for _, n := range b.nodes {
		switch node := n.(type) {
		case *ast.RangeStmt:
			d.rangeHeader(in, node)
		case *ast.AssignStmt:
			d.assign(in, node)
		case *ast.ReturnStmt:
			if report {
				for _, res := range node.Results {
					if src := d.exprTaint(in, res); src != token.NoPos {
						d.pass.Reportf(node.Return, "returns a value ordered by map iteration (tainted at line %d) without a sort barrier",
							d.pkg.Fset.Position(src).Line)
					}
				}
			}
		case *ast.SendStmt:
			if report {
				if src := d.exprTaint(in, node.Value); src != token.NoPos {
					d.pass.Reportf(node.Arrow, "sends a value ordered by map iteration (tainted at line %d) without a sort barrier",
						d.pkg.Fset.Position(src).Line)
				}
			}
		case *ast.ExprStmt:
			d.callEffects(in, node.X, report)
		case *ast.DeferStmt:
			d.callEffects(in, node.Call, report)
		case *ast.GoStmt:
			d.callEffects(in, node.Call, report)
		case *ast.DeclStmt:
			if gd, ok := node.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, name := range vs.Names {
							if i < len(vs.Values) {
								d.define(in, name, vs.Values[i])
							}
						}
					}
				}
			}
		case ast.Expr:
			// Conditions and switch tags: comparisons, order-clean.
		}
	}
	return in
}

// rangeHeader taints the iteration variables when X is a map or an
// already-tainted sequence.
func (d *detflowState) rangeHeader(in flowFact, rs *ast.RangeStmt) {
	var src token.Pos
	if tv, ok := d.pkg.Info.Types[rs.X]; ok && isMap(tv.Type) {
		src = rs.For
	} else if s := d.exprTaint(in, rs.X); s != token.NoPos {
		src = s
	} else {
		return
	}
	for _, expr := range []ast.Expr{rs.Key, rs.Value} {
		if expr == nil {
			continue
		}
		if id, ok := ast.Unparen(expr).(*ast.Ident); ok && id.Name != "_" {
			if obj := identObj(d.pkg, id); obj != nil {
				delete(in, obj)
				in.mark(obj, src)
			}
		}
	}
}

// assign propagates taint through one assignment.
func (d *detflowState) assign(in flowFact, s *ast.AssignStmt) {
	// Sort barriers can appear as expressions anywhere; handle calls in
	// the RHS first so `x = slices.Sorted(...)` comes out clean.
	for _, rhs := range s.Rhs {
		d.killSortArgs(in, rhs)
	}

	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		for i, lhs := range s.Lhs {
			var rhs ast.Expr
			if len(s.Rhs) == len(s.Lhs) {
				rhs = s.Rhs[i]
			} else if len(s.Rhs) == 1 {
				rhs = s.Rhs[0]
			}
			d.assignOne(in, lhs, rhs)
		}
	default:
		// Compound assignment: numeric accumulation commutes (sums,
		// counters, bit sets) and stays clean; anything else — string
		// concatenation most of all — is order-carrying.
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return
		}
		obj := identObj(d.pkg, s.Lhs[0])
		if obj == nil {
			return
		}
		if tv, ok := d.pkg.Info.Types[s.Lhs[0]]; ok && isNumeric(tv.Type) {
			return
		}
		if src := d.exprTaint(in, s.Rhs[0]); src != token.NoPos {
			delete(in, obj)
			in.mark(obj, src)
		}
	}
}

// assignOne applies one target←value pair with strong update.
func (d *detflowState) assignOne(in flowFact, lhs, rhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return // writes through fields/indexes don't re-order the base
	}
	obj := identObj(d.pkg, id)
	if obj == nil {
		return
	}
	delete(in, obj)
	if rhs == nil {
		return
	}
	if src := d.exprTaint(in, rhs); src != token.NoPos {
		in.mark(obj, src)
	}
}

// define handles `var x = v` declarations.
func (d *detflowState) define(in flowFact, name *ast.Ident, value ast.Expr) {
	obj := d.pkg.Info.Defs[name]
	if obj == nil {
		return
	}
	delete(in, obj)
	if src := d.exprTaint(in, value); src != token.NoPos {
		in.mark(obj, src)
	}
}

// callEffects handles a call executed as a statement: sort barriers
// kill their arguments' taint; output sinks report tainted arguments.
func (d *detflowState) callEffects(in flowFact, e ast.Expr, report bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	if d.isSortCall(call) {
		d.killSortArgs(in, call)
		return
	}
	if report && d.isOutputCall(call) {
		for _, arg := range call.Args {
			if src := d.exprTaint(in, arg); src != token.NoPos {
				d.pass.Reportf(call.Pos(), "map-iteration order (tainted at line %d) reaches output without a sort barrier",
					d.pkg.Fset.Position(src).Line)
				return
			}
		}
	}
}

// killSortArgs clears the taint of every object mentioned in the
// arguments of sort/slices calls found inside e.
func (d *detflowState) killSortArgs(in flowFact, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !d.isSortCall(call) {
			return true
		}
		for _, arg := range call.Args {
			var objs []types.Object
			ast.Inspect(arg, func(x ast.Node) bool {
				if id, isIdent := x.(*ast.Ident); isIdent {
					if obj := d.pkg.Info.Uses[id]; obj != nil {
						objs = append(objs, obj)
					}
				}
				return true
			})
			for _, obj := range objs {
				delete(in, obj)
			}
		}
		return true
	})
}

// isSortCall reports whether the call is a sort or slices ordering
// function — the recognized sort barriers.
func (d *detflowState) isSortCall(call *ast.CallExpr) bool {
	fn := calleeFunc(d.pkg, call)
	if fn == nil {
		return false
	}
	switch funcPkgPath(fn) {
	case "sort", "slices":
		return true
	}
	return false
}

// isOutputCall recognizes sinks where ordering becomes observable:
// formatting, encoding, IO and logging calls.
func (d *detflowState) isOutputCall(call *ast.CallExpr) bool {
	fn := calleeFunc(d.pkg, call)
	if fn == nil {
		return false
	}
	switch funcPkgPath(fn) {
	case "fmt", "encoding/json", "encoding/csv", "io", "os", "log", "bufio", "bytes", "strings":
		// bytes/strings builders and writers included: they are the
		// staging buffers diagnostics get assembled in.
		switch fn.Name() {
		case "Contains", "Compare", "Equal", "HasPrefix", "HasSuffix", "Index", "Count":
			return false // order-insensitive predicates
		}
		return true
	}
	return false
}

// exprTaint evaluates an expression's taint: the position of the map
// range responsible, or NoPos when clean.
func (d *detflowState) exprTaint(in flowFact, e ast.Expr) token.Pos {
	if e == nil {
		return token.NoPos
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := identObj(d.pkg, x); obj != nil {
			if ps := in[obj]; len(ps) > 0 {
				return ps.minPos()
			}
		}
		return token.NoPos
	case *ast.BinaryExpr:
		switch x.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return token.NoPos // boolean results carry no ordering
		}
		if p := d.exprTaint(in, x.X); p != token.NoPos {
			return p
		}
		return d.exprTaint(in, x.Y)
	case *ast.UnaryExpr:
		return d.exprTaint(in, x.X)
	case *ast.StarExpr:
		return d.exprTaint(in, x.X)
	case *ast.IndexExpr:
		if p := d.exprTaint(in, x.X); p != token.NoPos {
			return p
		}
		return d.exprTaint(in, x.Index)
	case *ast.SliceExpr:
		return d.exprTaint(in, x.X)
	case *ast.SelectorExpr:
		return d.exprTaint(in, x.X)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if p := d.exprTaint(in, v); p != token.NoPos {
				return p
			}
		}
		return token.NoPos
	case *ast.CallExpr:
		return d.callTaint(in, x)
	case *ast.TypeAssertExpr:
		return d.exprTaint(in, x.X)
	case *ast.KeyValueExpr:
		return d.exprTaint(in, x.Value)
	default:
		return token.NoPos
	}
}

// callTaint evaluates a call expression's result taint.
func (d *detflowState) callTaint(in flowFact, call *ast.CallExpr) token.Pos {
	if d.isSortCall(call) {
		return token.NoPos // sorted results are clean by definition
	}
	if fn := calleeFunc(d.pkg, call); fn != nil {
		if funcPkgPath(fn) == "maps" && (fn.Name() == "Keys" || fn.Name() == "Values") {
			return call.Pos() // iterator over a map: a source in itself
		}
	}
	// Builtins whose results are order-independent.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := d.pkg.Info.Uses[id].(*types.Builtin); isB {
			switch b.Name() {
			case "len", "cap", "make", "new", "min", "max", "delete", "clear":
				return token.NoPos
			}
		}
	}
	// Anything else: a tainted argument taints the result (append,
	// strings.Join, conversions through helper functions, ...).
	for _, arg := range call.Args {
		if p := d.exprTaint(in, arg); p != token.NoPos {
			return p
		}
	}
	return token.NoPos
}
