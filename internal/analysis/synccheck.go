package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// SyncCheck flags durability bugs around *os.File writes: a code path
// that writes to a file but never consumes the error of a Sync or Close
// on that file has no evidence the bytes reached stable storage. The
// archive's crash-safety contract (every fully-synced record survives a
// torn write) depends on exactly this discipline, so the check extends
// the lint gate to the storage subsystem:
//
//   - a write call (Write, WriteString, WriteAt, Truncate) on a local
//     *os.File — or on any interface-typed handle whose method set
//     carries both Write and Sync, the internal/vfs.File shape the
//     fault-injection harness routes the archive through — must be
//     matched, in the same function, by a
//     Sync() or Close() call on that variable whose error result is
//     consumed — unless the variable escapes (returned, stored in a
//     field, or handed to another function), in which case the caller
//     owns the flush;
//   - a write through a struct field (the long-lived handle pattern,
//     e.g. an archive's active segment) is matched package-wide: any
//     checked Sync/Close on the same field anywhere in the package
//     satisfies it, since batching appends and syncing once per
//     checkpoint is the intended cadence.
//
// The same discipline covers the group-commit layer one level up: a
// call to an AppendCheckpointDeferred method — the archive's
// "checkpoint framed but NOT yet durable" primitive, which the
// follower's batched writer relies on — must be matched (same function
// for locals, package-wide for fields, with the same escape rules) by a
// checked Sync or Close on the same receiver, since a
// deferred checkpoint that is never followed by a sync is a checkpoint
// that silently never becomes observable.
//
// Bare `f.Sync()`, `defer f.Close()` and `_ = f.Close()` discard the
// error and do not count as checks. Intentional fire-and-forget writes
// should be waived with a //lint:allow synccheck directive.
var SyncCheck = &Analyzer{
	Name: "synccheck",
	Doc:  "flags *os.File writes and deferred checkpoints with no matching checked Sync",
	Run:  runSyncCheck,
}

// fileWriteMethods mutate file contents or metadata that must be synced.
var fileWriteMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteAt":     true,
	"Truncate":    true,
}

// fileSyncMethods flush (or flush-and-release) the handle.
var fileSyncMethods = map[string]bool{
	"Sync":  true,
	"Close": true,
}

// walWriteMethods defer durability on write-ahead-log-shaped receivers
// (matched by name on any non-os.File method receiver): the write lands
// but stays unobservable until a sync.
var walWriteMethods = map[string]bool{
	"AppendCheckpointDeferred": true,
}

// walSyncMethods promote deferred writes: an explicit Sync or a
// flush-and-release Close.
var walSyncMethods = map[string]bool{
	"Sync":  true,
	"Close": true,
}

func runSyncCheck(pass *Pass) {
	// Field-handle aggregation spans the package: writes and checked
	// syncs are keyed by the field's type-checker object. File writes
	// and deferred checkpoints keep separate write tallies (the
	// diagnostics differ) but share the checked-sync tally.
	fieldWrites := make(map[types.Object]ast.Node)
	walFieldWrites := make(map[types.Object]ast.Node)
	fieldSynced := make(map[types.Object]bool)

	for _, file := range pass.Pkg.Files {
		eachFuncBody(file, func(name string, body *ast.BlockStmt) {
			syncCheckFunc(pass, body, fieldWrites, walFieldWrites, fieldSynced)
		})
	}

	report := func(writes map[types.Object]ast.Node, format string) {
		unsynced := make([]types.Object, 0, len(writes))
		for obj := range writes {
			if !fieldSynced[obj] {
				unsynced = append(unsynced, obj)
			}
		}
		sort.Slice(unsynced, func(i, j int) bool {
			return writes[unsynced[i]].Pos() < writes[unsynced[j]].Pos()
		})
		for _, obj := range unsynced {
			pass.Reportf(writes[obj].Pos(), format, obj.Name())
		}
	}
	report(fieldWrites, "field %s is written without any checked Sync or Close in this package")
	report(walFieldWrites, "field %s takes deferred checkpoints without any checked Sync in this package")
}

// syncCheckFunc analyzes one function body: local receivers (files and
// deferred-checkpoint sinks alike) are resolved within the body; field
// receivers feed the package tallies.
func syncCheckFunc(pass *Pass, body *ast.BlockStmt, fieldWrites, walFieldWrites map[types.Object]ast.Node, fieldSynced map[types.Object]bool) {
	pkg := pass.Pkg
	unconsumed := unconsumedCalls(body)

	localWrites := make(map[types.Object]ast.Node)
	walLocalWrites := make(map[types.Object]ast.Node)
	localSynced := make(map[types.Object]bool)

	inner := func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false // separate scope, visited on its own
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var isWrite, isSync, isWal bool
		sel, method, ok := osFileMethodCall(pkg, call)
		if !ok {
			sel, method, ok = vfsFileMethodCall(pkg, call)
		}
		if ok {
			isWrite, isSync = fileWriteMethods[method], fileSyncMethods[method]
		} else {
			if sel, method, ok = walMethodCall(pkg, call); !ok {
				return true
			}
			isWrite, isSync, isWal = walWriteMethods[method], walSyncMethods[method], true
		}
		if !isWrite && !isSync {
			return true
		}
		writes, fWrites := localWrites, fieldWrites
		if isWal {
			writes, fWrites = walLocalWrites, walFieldWrites
		}
		recv := ast.Unparen(sel.X)
		if id, isIdent := recv.(*ast.Ident); isIdent {
			obj := identObj(pkg, id)
			if obj == nil {
				return true
			}
			if isWrite && writes[obj] == nil {
				writes[obj] = call
			}
			if isSync && !unconsumed[call] {
				localSynced[obj] = true
			}
			return true
		}
		if fieldSel, isSel := recv.(*ast.SelectorExpr); isSel {
			obj := selectedField(pkg, fieldSel)
			if obj == nil {
				return true
			}
			if isWrite && fWrites[obj] == nil {
				fWrites[obj] = call
			}
			if isSync && !unconsumed[call] {
				fieldSynced[obj] = true
			}
		}
		return true
	}
	ast.Inspect(body, inner)

	reportLocal := func(writes map[types.Object]ast.Node, format string) {
		objs := make([]types.Object, 0, len(writes))
		for obj := range writes {
			objs = append(objs, obj)
		}
		sort.Slice(objs, func(i, j int) bool {
			return writes[objs[i]].Pos() < writes[objs[j]].Pos()
		})
		for _, obj := range objs {
			if localSynced[obj] || escapesFunc(pkg, body, obj) {
				continue
			}
			pass.Reportf(writes[obj].Pos(), format, obj.Name())
		}
	}
	reportLocal(localWrites, "%s is written without a checked Sync or Close in this function")
	reportLocal(walLocalWrites, "%s takes a deferred checkpoint without a checked Sync in this function")
}

// osFileMethodCall matches a method call on an *os.File receiver and
// returns the selector and method name.
func osFileMethodCall(pkg *Package, call *ast.CallExpr) (*ast.SelectorExpr, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	fn := calleeFunc(pkg, call)
	if fn == nil || funcPkgPath(fn) != "os" {
		return nil, "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, "", false
	}
	recv := sig.Recv()
	if recv == nil {
		return nil, "", false
	}
	ptr, ok := recv.Type().(*types.Pointer)
	if !ok {
		return nil, "", false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Name() != "File" {
		return nil, "", false
	}
	return sel, fn.Name(), true
}

// vfsFileMethodCall matches a method call on an interface-typed
// receiver whose method set carries both Write([]byte) (int, error)
// and Sync() error — the shape of internal/vfs.File, the
// fault-injectable handle the archive writes through. The match is
// structural, not nominal, so fixture interfaces and future
// vfs.File-shaped abstractions are held to the same discipline as
// *os.File without this package importing them.
func vfsFileMethodCall(pkg *Package, call *ast.CallExpr) (*ast.SelectorExpr, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil, "", false
	}
	iface, ok := s.Recv().Underlying().(*types.Interface)
	if !ok || !isFileShapedInterface(iface) {
		return nil, "", false
	}
	return sel, s.Obj().Name(), true
}

// isFileShapedInterface reports whether the (embedding-expanded) method
// set includes a Write with one parameter and two results and a Sync
// with no parameters and one result — close enough to pin the durable-
// handle contract without chasing exact parameter types.
func isFileShapedInterface(iface *types.Interface) bool {
	var hasWrite, hasSync bool
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		sig, ok := m.Type().(*types.Signature)
		if !ok {
			continue
		}
		switch m.Name() {
		case "Write":
			hasWrite = sig.Params().Len() == 1 && sig.Results().Len() == 2
		case "Sync":
			hasSync = sig.Params().Len() == 0 && sig.Results().Len() == 1
		}
	}
	return hasWrite && hasSync
}

// walMethodCall matches a method call whose name belongs to the
// deferred-durability families (walWriteMethods / walSyncMethods) on
// any non-os receiver, and returns the selector and method name. The
// match is by name, not by concrete type, so fixture types and future
// stores with the same contract are covered without importing them.
func walMethodCall(pkg *Package, call *ast.CallExpr) (*ast.SelectorExpr, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Type() == nil {
		return nil, "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, "", false
	}
	if !walWriteMethods[fn.Name()] && !walSyncMethods[fn.Name()] {
		return nil, "", false
	}
	return sel, fn.Name(), true
}

// selectedField resolves x.f to the field object f, or nil when the
// selector is not a struct-field access.
func selectedField(pkg *Package, sel *ast.SelectorExpr) types.Object {
	if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		return s.Obj()
	}
	return nil
}

// unconsumedCalls returns the set of call expressions whose results are
// discarded: statement-level calls, deferred and go'd calls, and calls
// assigned only to the blank identifier.
func unconsumedCalls(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.ExprStmt:
			if call, ok := node.X.(*ast.CallExpr); ok {
				out[call] = true
			}
		case *ast.DeferStmt:
			out[node.Call] = true
		case *ast.GoStmt:
			out[node.Call] = true
		case *ast.AssignStmt:
			if len(node.Rhs) != 1 {
				return true
			}
			call, ok := node.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, lhs := range node.Lhs {
				if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
					return true // at least one result is bound
				}
			}
			out[call] = true
		}
		return true
	})
	return out
}

// escapesFunc reports whether obj is used in the body outside the
// os.File method-call receivers already tallied — returned, assigned to
// a field or another variable, placed in a composite literal, or passed
// as a call argument. An escaping handle's flush is the new owner's
// responsibility.
func escapesFunc(pkg *Package, body *ast.BlockStmt, obj types.Object) bool {
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		switch node := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range node.Results {
				if identObj(pkg, res) == obj {
					escapes = true
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range node.Rhs {
				if identObj(pkg, rhs) == obj {
					escapes = true
				}
			}
		case *ast.CompositeLit:
			for _, elt := range node.Elts {
				e := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if identObj(pkg, e) == obj {
					escapes = true
				}
			}
		case *ast.CallExpr:
			// The receiver of f.Write/f.Sync sits in the selector, not
			// the argument list, so method calls on f never trip this.
			for _, arg := range node.Args {
				if identObj(pkg, arg) == obj {
					escapes = true
				}
			}
		}
		return !escapes
	})
	return escapes
}
