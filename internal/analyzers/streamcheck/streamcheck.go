// Package streamcheck enforces the stream terminal-error contract: every
// result stream must be consulted for how it ended. PR 7 fixed a silent-
// truncation bug whose exact shape was a drained stream nobody asked
// "did you finish?" — a server that died mid-enumeration produced a
// short, plausible-looking result. The contract has three surfaces:
//
//   - core.Iterator values (Representation.Query*, Maintained.Query),
//     core.BlockIterator values (Representation.QueryBlocks) and
//     core.RowIterator values (core.MergeRows): after
//     draining, IterErr (or the value's own Err method) distinguishes
//     completion from failure. A function that creates an iterator must consult it or hand the iterator to
//     someone who can (return it, pass it on, store it). Draining
//     through core.Drain(x.Query(...)) without retaining the iterator
//     makes the terminal error unreachable and is flagged.
//
//   - httpserve.Stream values (Client.Open): same rule with Stream.Err.
//
//   - range-over-func enumerations (All2): an iter.Seq2[Tuple, error]
//     yields the terminal error as its last element. Ranging one while
//     dropping that element — one range variable, or a blank error
//     variable — defeats the point and is flagged.
//
// The analyzer runs on non-test files: the production contract is what
// it guards, and tests exercise failure paths deliberately.
package streamcheck

import (
	"go/ast"
	"go/types"

	"cqrep/internal/analyzers"
)

// Analyzer flags result streams whose terminal error is never consulted.
var Analyzer = &analyzers.Analyzer{
	Name: "streamcheck",
	Doc: "flag result streams (core.Iterator, core.BlockIterator, core.RowIterator, httpserve.Stream, All2 sequences) " +
		"drained without consulting their terminal error (IterErr / Err / the error element)",
	Run: run,
}

func run(pass *analyzers.Pass) error {
	for _, f := range pass.Files {
		if analyzers.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				analyzeFunc(pass, fd)
			}
		}
	}
	return nil
}

// parentMap records each node's syntactic parent within one function.
type parentMap map[ast.Node]ast.Node

func buildParents(fd *ast.FuncDecl) parentMap {
	parents := make(parentMap)
	var stack []ast.Node
	ast.Inspect(fd, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// parent returns the nearest non-paren parent of n.
func (p parentMap) parent(n ast.Node) ast.Node {
	for {
		up := p[n]
		if pe, ok := up.(*ast.ParenExpr); ok {
			n = pe
			continue
		}
		return up
	}
}

func analyzeFunc(pass *analyzers.Pass, fd *ast.FuncDecl) {
	parents := buildParents(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if producesStream(pass, call) {
			checkStreamCall(pass, fd, parents, call)
		}
		if isSeq2Call(pass, call) {
			checkSeq2Call(pass, fd, parents, call)
		}
		return true
	})
}

// --- core.Iterator / core.BlockIterator / core.RowIterator / httpserve.Stream

func isStreamType(t types.Type) bool {
	return analyzers.IsNamed(t, analyzers.ModulePath+"/internal/core", "Iterator") ||
		analyzers.IsNamed(t, analyzers.ModulePath+"/internal/core", "BlockIterator") ||
		analyzers.IsNamed(t, analyzers.ModulePath+"/internal/core", "RowIterator") ||
		analyzers.IsNamed(t, analyzers.ModulePath+"/internal/httpserve", "Stream")
}

// producesStream reports whether call yields a stream value directly or
// as one element of a multi-value result.
func producesStream(pass *analyzers.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isStreamType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isStreamType(tv.Type)
	}
}

func checkStreamCall(pass *analyzers.Pass, fd *ast.FuncDecl, parents parentMap, call *ast.CallExpr) {
	switch p := parents.parent(call).(type) {
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(), "result stream discarded: drain it and consult IterErr/Err, or drop the call")
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if ast.Unparen(rhs) != call {
				continue
			}
			// it := f()  or  it, err := f(): find the stream-typed LHS
			// positions from the call's result tuple.
			lhs := p.Lhs
			if len(p.Rhs) == 1 && len(lhs) > 1 {
				tup, ok := pass.TypesInfo.Types[call].Type.(*types.Tuple)
				if !ok {
					return
				}
				for j, l := range lhs {
					if j < tup.Len() && isStreamType(tup.At(j).Type()) {
						checkStreamVar(pass, fd, parents, call, l)
					}
				}
				return
			}
			if i < len(lhs) {
				checkStreamVar(pass, fd, parents, call, lhs[i])
			}
		}
	case *ast.CallExpr:
		if obj := analyzers.CalleeObj(pass.TypesInfo, p); obj != nil && obj.Name() == "Drain" && analyzers.InModule(obj.Pkg()) {
			pass.Reportf(call.Pos(),
				"stream drained inline via Drain without retaining the iterator: "+
					"its terminal error (IterErr) is unreachable — bind the iterator first")
		}
		// Any other callee takes over the consult obligation.
	case *ast.ReturnStmt:
		// Escapes to the caller, which inherits the obligation.
	case *ast.ValueSpec:
		for _, name := range p.Names {
			checkStreamVar(pass, fd, parents, call, name)
		}
	}
}

// checkStreamVar applies the consult-or-escape rule to one variable
// bound to a stream-producing call.
func checkStreamVar(pass *analyzers.Pass, fd *ast.FuncDecl, parents parentMap, call *ast.CallExpr, lhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return // field/index target: stored, escapes
	}
	if id.Name == "_" {
		// Blank identifiers carry no object; the caller established the
		// assigned component is stream-typed.
		pass.Reportf(call.Pos(), "result stream assigned to _: consult IterErr/Err or restructure to avoid producing it")
		return
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id] // plain = assignment
	}
	if obj == nil || !isStreamType(obj.Type()) {
		return // declared as a wider type (any): escapes into it
	}
	consulted, escaped := scanUses(pass, fd, parents, obj)
	if consulted || escaped {
		return
	}
	pass.Reportf(call.Pos(),
		"%s is drained but never consulted for its terminal error: call IterErr(%s) (or %s.Err()) after the drain — "+
			"a stream that dies mid-enumeration otherwise looks like a short result",
		id.Name, id.Name, id.Name)
}

// scanUses classifies every use of obj in fd: consulted (IterErr/Err),
// escaped (returned, passed on, stored), or merely drained.
func scanUses(pass *analyzers.Pass, fd *ast.FuncDecl, parents parentMap, obj types.Object) (consulted, escaped bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != obj {
			return true
		}
		switch p := parents.parent(id).(type) {
		case *ast.SelectorExpr:
			if p.X == id || ast.Unparen(p.X) == ast.Expr(id) {
				switch p.Sel.Name {
				case "Err":
					if gp, ok := parents.parent(p).(*ast.CallExpr); ok && ast.Unparen(gp.Fun) == ast.Expr(p) {
						consulted = true
					}
				case "Next", "NextBlock", "NextRows", "Close":
					// draining / releasing: neutral
				default:
					escaped = true
				}
			}
		case *ast.CallExpr:
			for _, arg := range p.Args {
				if ast.Unparen(arg) != ast.Expr(id) {
					continue
				}
				callee := analyzers.CalleeObj(pass.TypesInfo, p)
				switch {
				case callee == nil:
					escaped = true
				case callee.Name() == "IterErr" && analyzers.InModule(callee.Pkg()):
					consulted = true
				case callee.Name() == "Drain" && analyzers.InModule(callee.Pkg()):
					// draining: neutral — the obligation stands
				default:
					escaped = true
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range p.Rhs {
				if ast.Unparen(rhs) == ast.Expr(id) {
					escaped = true // aliased; the alias carries the duty
				}
			}
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt, *ast.UnaryExpr:
			escaped = true
		case *ast.BinaryExpr, *ast.RangeStmt, *ast.IndexExpr, *ast.TypeAssertExpr:
			// comparisons, indexing, assertions: neutral
		default:
			// Unknown use: assume it hands the stream off rather than
			// risk a false positive.
			escaped = true
		}
		return true
	})
	return consulted, escaped
}

// --- All2 sequences (iter.Seq2 with the error element) --------------------

// resultIncludes reports whether call's result (or one element of its
// result tuple) is iter.<name>.
func resultIncludes(pass *analyzers.Pass, call *ast.CallExpr, name string) bool {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if analyzers.IsNamed(tup.At(i).Type(), "iter", name) {
				return true
			}
		}
		return false
	}
	return analyzers.IsNamed(tv.Type, "iter", name)
}

// isSeq2Call matches module calls returning iter.Seq2[..., error].
func isSeq2Call(pass *analyzers.Pass, call *ast.CallExpr) bool {
	obj := analyzers.CalleeObj(pass.TypesInfo, call)
	if obj == nil || !analyzers.InModule(obj.Pkg()) {
		return false
	}
	return resultIncludes(pass, call, "Seq2")
}

func checkSeq2Call(pass *analyzers.Pass, fd *ast.FuncDecl, parents parentMap, call *ast.CallExpr) {
	switch p := parents.parent(call).(type) {
	case *ast.RangeStmt:
		if ast.Unparen(p.X) == ast.Expr(call) {
			checkSeq2Range(pass, p)
		}
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil || !analyzers.IsNamed(obj.Type(), "iter", "Seq2") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if rs, ok := n.(*ast.RangeStmt); ok {
					if x, ok := ast.Unparen(rs.X).(*ast.Ident); ok && pass.TypesInfo.Uses[x] == obj {
						checkSeq2Range(pass, rs)
					}
				}
				return true
			})
		}
	}
}

// checkSeq2Range flags ranging an error-carrying sequence while dropping
// the error element.
func checkSeq2Range(pass *analyzers.Pass, rs *ast.RangeStmt) {
	if rs.Value == nil {
		pass.Reportf(rs.Pos(),
			"ranging an error-carrying sequence with one variable drops its terminal error: "+
				"use `for t, err := range ...` and handle err")
		return
	}
	if id, ok := ast.Unparen(rs.Value).(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(rs.Pos(),
			"ranging an error-carrying sequence with a blank error variable drops its terminal error: "+
				"bind and handle the err element")
	}
}
