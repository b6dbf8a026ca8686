package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism enforces the byte-identical-sweeps contract: in the
// packages whose output the experiment fingerprints cover, nothing may
// read the wall clock, draw from the process-global rand source,
// launch goroutines outside the internal/par seam, or let map
// iteration order leak into emitted results.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall clocks, global math/rand, ad-hoc goroutines, and " +
		"map-iteration-ordered output in deterministic packages",
	Run: runDeterminism,
}

// deterministicPackages are fully checked: every function in them must
// be replayable from a seed. internal/load is special-cased below —
// only BuildSchedule's call graph is deterministic there; Run does
// real-time pacing by design.
var deterministicPackages = map[string]bool{
	ModulePath + "/internal/core":        true,
	ModulePath + "/internal/sim":         true,
	ModulePath + "/internal/experiments": true,
	ModulePath + "/internal/workload":    true,
	ModulePath + "/internal/dist":        true,
	ModulePath + "/internal/merge":       true,
	ModulePath + "/internal/trace":       true,
	ModulePath + "/internal/bandwidth":   true,
}

const (
	loadPkgPath  = ModulePath + "/internal/load"
	loadRootFunc = "BuildSchedule"
	parPkgPath   = ModulePath + "/internal/par"
)

// Wall-clock entry points in package time. time.Duration arithmetic
// and constants are fine; reading or waiting on the real clock is not.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// Package-level math/rand functions that do NOT touch the global
// source and stay allowed.
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func runDeterminism(pass *Pass) error {
	var checkAll bool
	var reachable map[*ast.FuncDecl]bool
	switch {
	case deterministicPackages[pass.PkgPath]:
		checkAll = true
	case pass.PkgPath == loadPkgPath:
		reachable = reachableFrom(pass, loadRootFunc)
	default:
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			if !checkAll && !reachable[fd] {
				continue
			}
			checkFuncDeterminism(pass, fd)
		}
	}
	return nil
}

func checkFuncDeterminism(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(x.Pos(),
				"goroutine launched in deterministic code; route concurrency through internal/par so results merge in a fixed order")
		case *ast.CallExpr:
			checkDeterministicCall(pass, x)
		}
		return true
	})
	// Map-order analysis needs statement context (the "sorted after"
	// exemption), so it walks blocks rather than using Inspect.
	checkBlockMapOrder(pass, fd.Body.List)
}

func checkDeterministicCall(pass *Pass, call *ast.CallExpr) {
	fn := staticCallee(pass.Info, call)
	if fn == nil {
		return
	}
	switch calleePkgPath(fn) {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock; deterministic code must derive timing from the seed or an injected clock", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Recv() != nil {
			return // method on a seeded *rand.Rand / Source / Zipf
		}
		if seededRandConstructors[fn.Name()] {
			return
		}
		pass.Reportf(call.Pos(),
			"%s.%s draws from the process-global source; use a *rand.Rand seeded via sim.SplitSeed", calleePkgPath(fn), fn.Name())
	}
}

// --- map iteration order -------------------------------------------------

// checkBlockMapOrder scans a statement list; for each `for range m`
// over a map it checks the body for order-sensitive effects, with
// access to the statements that follow the loop (a sort of the
// collected keys/rows immediately after the loop is the sanctioned
// collect-then-sort idiom).
func checkBlockMapOrder(pass *Pass, stmts []ast.Stmt) {
	for i, s := range stmts {
		switch x := s.(type) {
		case *ast.RangeStmt:
			if isMapType(pass.Info.TypeOf(x.X)) {
				checkMapRangeBody(pass, x, stmts[i+1:])
			}
			checkBlockMapOrder(pass, x.Body.List)
		case *ast.ForStmt:
			checkBlockMapOrder(pass, x.Body.List)
		case *ast.IfStmt:
			checkBlockMapOrder(pass, x.Body.List)
			if alt, ok := x.Else.(*ast.BlockStmt); ok {
				checkBlockMapOrder(pass, alt.List)
			} else if alt, ok := x.Else.(*ast.IfStmt); ok {
				checkBlockMapOrder(pass, []ast.Stmt{alt})
			}
		case *ast.BlockStmt:
			checkBlockMapOrder(pass, x.List)
		case *ast.SwitchStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					checkBlockMapOrder(pass, cc.Body)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					checkBlockMapOrder(pass, cc.Body)
				}
			}
		case *ast.SelectStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					checkBlockMapOrder(pass, cc.Body)
				}
			}
		case *ast.LabeledStmt:
			checkBlockMapOrder(pass, []ast.Stmt{x.Stmt})
		}
	}
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRangeBody flags three order-sensitive effects inside a map
// range body:
//
//  1. appending to a slice declared outside the loop, unless the slice
//     is sorted (sort.* / slices.Sort*) before its next use after the
//     loop — the collect-then-sort idiom;
//  2. non-commutative accumulation (+= / -= on float or string
//     lvalues rooted outside the loop; float addition is not
//     associative, so iteration order changes the sum bit pattern);
//  3. direct emission into a row sink (Row / MetricRow / Emit calls).
//
// Integer accumulation and pure lookups are commutative and pass.
func checkMapRangeBody(pass *Pass, rs *ast.RangeStmt, after []ast.Stmt) {
	type appendTarget struct {
		obj types.Object
		pos token.Pos
	}
	var appends []appendTarget
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			switch x.Tok {
			case token.ASSIGN, token.DEFINE:
				for i, rhs := range x.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || !isBuiltinAppend(pass, call) || i >= len(x.Lhs) {
						continue
					}
					id, ok := ast.Unparen(x.Lhs[i]).(*ast.Ident)
					if !ok {
						continue
					}
					obj := pass.Info.Defs[id]
					if obj == nil {
						obj = pass.Info.Uses[id]
					}
					if obj != nil && declaredOutside(obj, rs) {
						appends = append(appends, appendTarget{obj, x.Pos()})
					}
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				lhs := x.Lhs[0]
				if !orderSensitiveAccumType(pass.Info.TypeOf(lhs)) {
					return true
				}
				root := rootIdent(lhs)
				if root == nil {
					return true
				}
				obj := pass.Info.Uses[root]
				if obj == nil {
					obj = pass.Info.Defs[root]
				}
				if obj != nil && declaredOutside(obj, rs) {
					pass.Reportf(x.Pos(),
						"order-sensitive accumulation into %s inside range over map: float/string accumulation depends on iteration order; iterate sorted keys", root.Name)
				}
			}
		case *ast.CallExpr:
			if name := rowSinkCallName(pass, x); name != "" {
				pass.Reportf(x.Pos(),
					"%s called inside range over map: row emission order follows map iteration order; iterate sorted keys", name)
			}
		case *ast.FuncLit:
			return true // still scan closure bodies: they run per-iteration when called inline
		}
		return true
	})

	for _, ap := range appends {
		if sortedBeforeUse(pass, ap.obj, after) {
			continue
		}
		pass.Reportf(ap.pos,
			"append to %s inside range over map feeds output in iteration order; sort %s after the loop or iterate sorted keys", ap.obj.Name(), ap.obj.Name())
	}
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// declaredOutside reports whether obj's declaration lies outside the
// range statement (so mutations inside the loop escape it).
func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
}

func orderSensitiveAccumType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&types.IsFloat != 0 || b.Info()&types.IsString != 0 ||
		b.Info()&types.IsComplex != 0
}

// rowSinkCallName recognizes emission calls whose order is
// user-visible: methods named Row/MetricRow/Emit (the RowSink and
// engine sink surface) and functions named emit*.
func rowSinkCallName(pass *Pass, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Row", "MetricRow", "Emit":
			return fun.Sel.Name
		}
	}
	return ""
}

// sortedBeforeUse scans the statements after the loop: if the first
// statement mentioning obj is a sort.*/slices.Sort* call over it, the
// collect-then-sort idiom applies.
func sortedBeforeUse(pass *Pass, obj types.Object, after []ast.Stmt) bool {
	for _, s := range after {
		mentioned := false
		ast.Inspect(s, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				mentioned = true
			}
			return true
		})
		if !mentioned {
			continue
		}
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok && isSortCall(pass, call, obj) {
				return true
			}
		}
		return false
	}
	return false
}

func isSortCall(pass *Pass, call *ast.CallExpr, obj types.Object) bool {
	fn := staticCallee(pass.Info, call)
	if fn == nil {
		return false
	}
	switch calleePkgPath(fn) {
	case "sort", "slices":
	default:
		return false
	}
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				found = true
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// --- load.BuildSchedule call graph ---------------------------------------

// reachableFrom computes the set of function declarations reachable
// from the named top-level function via (a) static calls and function
// references within the package and (b) conservative class-hierarchy
// edges: constructing a composite literal of a package-local named
// type pulls in all of that type's methods, which resolves interface
// dispatch like arrival-process Times() without whole-program
// analysis. This is the "BuildSchedule call graph" the determinism
// contract names; load.Run's wall-clock pacing sits outside it.
func reachableFrom(pass *Pass, rootName string) map[*ast.FuncDecl]bool {
	declOf := map[types.Object]*ast.FuncDecl{}
	var root *ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.Info.Defs[fd.Name]; obj != nil {
				declOf[obj] = fd
			}
			if fd.Recv == nil && fd.Name.Name == rootName && !pass.InTestFile(fd.Pos()) {
				root = fd
			}
		}
	}
	reach := map[*ast.FuncDecl]bool{}
	if root == nil {
		return reach
	}
	var frontier []*ast.FuncDecl
	push := func(fd *ast.FuncDecl) {
		if fd != nil && !reach[fd] {
			reach[fd] = true
			frontier = append(frontier, fd)
		}
	}
	pushMethods := func(t types.Type) {
		for {
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
				continue
			}
			break
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() != pass.Pkg {
			return
		}
		for i := 0; i < named.NumMethods(); i++ {
			push(declOf[named.Method(i)])
		}
	}
	push(root)
	for len(frontier) > 0 {
		fd := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if fn, ok := pass.Info.Uses[x].(*types.Func); ok && fn.Pkg() == pass.Pkg {
					push(declOf[fn])
				}
			case *ast.SelectorExpr:
				if fn, ok := pass.Info.Uses[x.Sel].(*types.Func); ok && fn.Pkg() == pass.Pkg {
					push(declOf[fn])
				}
			case *ast.CompositeLit:
				pushMethods(pass.Info.TypeOf(x))
			}
			return true
		})
	}
	return reach
}
