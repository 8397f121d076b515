// Package sentinelcheck enforces the sentinel-error discipline of the
// cqrep API: the package-level Err* sentinels (ErrBadBinding, ErrBadView,
// ErrBadSnapshot, ...) are documented to flow through error wrapping, so
// callers must branch with errors.Is and wrap with %w. A direct == or !=
// against a sentinel silently stops matching the moment any layer wraps
// the error (and most layers here do: Compile wraps ErrBadView,
// snapshots wrap ErrBadSnapshot, the HTTP layer wraps everything), and a
// sentinel formatted with %v/%s produces an error that errors.Is can no
// longer see through.
package sentinelcheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
	"unicode"
	"unicode/utf8"

	"cqrep/internal/analyzers"
)

// Analyzer flags ==/!= comparisons against module Err* sentinels (switch
// cases on an error tag included) and fmt.Errorf calls that format a
// sentinel with a verb other than %w.
var Analyzer = &analyzers.Analyzer{
	Name: "sentinelcheck",
	Doc: "flag ==/!= against Err* sentinels (use errors.Is) and fmt.Errorf " +
		"formatting a sentinel without %w (wrapping is what keeps errors.Is working)",
	Run: run,
}

func run(pass *analyzers.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkComparison(pass, n)
			case *ast.SwitchStmt:
				checkSwitch(pass, n)
			case *ast.CallExpr:
				checkErrorf(pass, n)
			}
			return true
		})
	}
	return nil
}

// sentinelOf resolves e to a module-level Err* sentinel variable, or nil.
func sentinelOf(pass *analyzers.Pass, e ast.Expr) types.Object {
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[e.Sel]
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || !analyzers.InModule(v.Pkg()) {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() { // package-level vars only
		return nil
	}
	if !isErrName(v.Name()) || !analyzers.IsErrorType(v.Type()) {
		return nil
	}
	return v
}

// isErrName matches the sentinel naming convention: Err or err followed by
// an upper-case rune (ErrClosed, errInfeasible).
func isErrName(name string) bool {
	rest, ok := strings.CutPrefix(name, "Err")
	if !ok {
		rest, ok = strings.CutPrefix(name, "err")
	}
	if !ok || rest == "" {
		return false
	}
	r, _ := utf8.DecodeRuneInString(rest)
	return unicode.IsUpper(r)
}

func checkComparison(pass *analyzers.Pass, cmp *ast.BinaryExpr) {
	if cmp.Op != token.EQL && cmp.Op != token.NEQ {
		return
	}
	for _, side := range []ast.Expr{cmp.X, cmp.Y} {
		if s := sentinelOf(pass, side); s != nil {
			pass.Reportf(cmp.Pos(),
				"comparing error with %s %s: sentinel errors flow through wrapping; use errors.Is",
				cmp.Op, s.Name())
			return
		}
	}
}

func checkSwitch(pass *analyzers.Pass, sw *ast.SwitchStmt) {
	// switch err { case ErrX: ... } is == in disguise.
	if sw.Tag == nil {
		return
	}
	tv, ok := pass.TypesInfo.Types[sw.Tag]
	if !ok || !analyzers.IsErrorType(tv.Type) {
		return
	}
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if s := sentinelOf(pass, e); s != nil {
				pass.Reportf(e.Pos(),
					"switch case compares error against %s with ==: sentinel errors flow through wrapping; use errors.Is",
					s.Name())
			}
		}
	}
}

func checkErrorf(pass *analyzers.Pass, call *ast.CallExpr) {
	obj := analyzers.CalleeObj(pass.TypesInfo, call)
	if obj == nil || obj.Name() != "Errorf" || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	verbs := formatVerbs(constant.StringVal(tv.Value))
	args := call.Args[1:]
	for i, arg := range args {
		s := sentinelOf(pass, arg)
		if s == nil {
			continue
		}
		v, ok := verbAt(verbs, i)
		if !ok || v == 'w' {
			continue // no verb (printf's problem) or properly wrapped
		}
		pass.Reportf(arg.Pos(),
			"fmt.Errorf formats sentinel %s with %%%c: use %%w so errors.Is still matches it",
			s.Name(), v)
	}
}

// verb is one conversion in a format string: the verb rune and the
// zero-based argument index it consumes.
type verb struct {
	r   rune
	arg int
}

// verbAt returns the verb consuming argument index i.
func verbAt(verbs []verb, i int) (rune, bool) {
	for _, v := range verbs {
		if v.arg == i {
			return v.r, true
		}
	}
	return 0, false
}

// formatVerbs scans a Printf-style format string and maps each verb to
// the argument it consumes, honoring '*' width/precision (each consumes
// an argument) and explicit [n] argument indexes.
func formatVerbs(format string) []verb {
	var out []verb
	arg := 0
	rs := []rune(format)
	for i := 0; i < len(rs); i++ {
		if rs[i] != '%' {
			continue
		}
		i++
		if i >= len(rs) {
			break
		}
		if rs[i] == '%' {
			continue
		}
		// flags, width, precision, [n] indexes
		for i < len(rs) {
			r := rs[i]
			switch {
			case r == '*':
				arg++ // width/precision argument
				i++
			case r == '[':
				j := i + 1
				n := 0
				for j < len(rs) && rs[j] >= '0' && rs[j] <= '9' {
					n = n*10 + int(rs[j]-'0')
					j++
				}
				if j < len(rs) && rs[j] == ']' && n > 0 {
					arg = n - 1 // explicit index is 1-based
					i = j + 1
				} else {
					i = j
				}
			case strings.ContainsRune("+-# 0.", r) || (r >= '0' && r <= '9'):
				i++
			default:
				goto verbRune
			}
		}
	verbRune:
		if i < len(rs) {
			out = append(out, verb{r: rs[i], arg: arg})
			arg++
		}
	}
	return out
}
