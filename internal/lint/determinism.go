// Determinism rules. The engines promise that a (Config, Seed) pair names
// exactly one execution (DESIGN §7); these analyzers reject the four ways Go
// code most easily breaks that promise: wall clocks, the process-global RNG,
// order-sensitive map iteration, and stray goroutines.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// wallClockFuncs are the time-package functions that read or wait on the wall
// clock. time.Duration arithmetic and time.Unix conversions stay legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandAllowed are the math/rand(/v2) package-level functions that do
// NOT draw from the shared global source: constructors taking an explicit
// seed or source.
var globalRandAllowed = map[string]bool{
	"New": true, "NewPCG": true, "NewChaCha8": true,
	"NewZipf": true, "NewSource": true, "Int64Seed": true,
}

func (a *analysis) checkDeterminism() {
	for _, p := range a.pkgs {
		if !a.isDeterministic(p) {
			continue
		}
		goroutineOK := slices.Contains(a.cfg.GoroutineAllowed, p.path)
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if name, ok := stdFuncCall(p.info, n, "time"); ok && wallClockFuncs[name] {
						a.report(n.Pos(), "walltime",
							"time.%s reads the wall clock; deterministic code must take time from the simulation clock", name)
					}
					if name, ok := stdFuncCall(p.info, n, "math/rand/v2"); ok && !globalRandAllowed[name] {
						a.report(n.Pos(), "globalrand",
							"rand.%s draws from the process-global RNG; use the run's seeded *rand.Rand", name)
					}
					if name, ok := stdFuncCall(p.info, n, "math/rand"); ok && !globalRandAllowed[name] {
						a.report(n.Pos(), "globalrand",
							"rand.%s draws from the process-global RNG; use the run's seeded *rand.Rand", name)
					}
				case *ast.GoStmt:
					if !goroutineOK {
						a.report(n.Pos(), "goroutine",
							"goroutine spawned outside the blessed parallel entry points; deterministic engines are single-threaded by contract")
					}
				case *ast.RangeStmt:
					a.checkMapRange(p, n)
				}
				return true
			})
		}
	}
}

// checkMapRange flags order-sensitive bodies of map iterations. Go randomizes
// map order per iteration, so anything the body does that depends on visit
// order — sends, appends, folds, last-writer-wins assignments, first-match
// returns — makes the run schedule-dependent. Order-insensitive idioms stay
// legal: pure scans, delete-while-iterating, keyed copies (dst[k] = v),
// returns that name no loop variable (return true), and the sorted-keys idiom
// (collect only the keys, sort, then loop).
func (a *analysis) checkMapRange(p *pkgInfo, rng *ast.RangeStmt) {
	t := p.info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	keyObj := rangeVarObj(p.info, rng.Key)
	valObj := rangeVarObj(p.info, rng.Value)
	loopVar := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := p.info.Uses[id]; obj != nil && (obj == keyObj || obj == valObj) {
					found = true
				}
			}
			return !found
		})
		return found
	}
	outer := func(e ast.Expr) bool {
		id := rootIdent(e)
		if id == nil {
			return false
		}
		obj := p.info.Uses[id]
		if obj == nil {
			obj = p.info.Defs[id]
		}
		if obj == nil {
			return false
		}
		return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
	}

	// keyOnlyAppend recognizes append(xs, k) where k is the range key — the
	// collecting half of the sorted-keys idiom. It is allowed both as a bare
	// call and as the RHS of `keys = append(keys, k)`.
	keyOnlyAppend := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok || !builtinCall(p.info, call, "append") {
			return false
		}
		if call.Ellipsis != token.NoPos || len(call.Args) != 2 {
			return false
		}
		argID, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
		return ok && keyObj != nil && p.info.Uses[argID] == keyObj
	}

	flag := func(pos token.Pos, what string) {
		a.report(pos, "maprange",
			"map iteration order is randomized but the body %s; iterate sorted keys instead (collect keys, sort, then index)", what)
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			flag(rng.Pos(), "sends on a channel in iteration order")
			return false
		case *ast.CallExpr:
			// Builtin: append is order-sensitive unless it collects only
			// the keys (the first half of the sorted-keys idiom).
			if builtinCall(p.info, n, "append") && !keyOnlyAppend(n) {
				flag(n.Pos(), "appends in iteration order")
			}
		case *ast.IncDecStmt:
			if outer(n.X) {
				flag(n.Pos(), "accumulates a fold across iterations")
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			if n.Tok != token.ASSIGN { // compound: +=, -=, |=, ...
				for _, lhs := range n.Lhs {
					if outer(lhs) {
						flag(n.Pos(), "accumulates a fold across iterations")
						break
					}
				}
				return true
			}
			for i, lhs := range n.Lhs {
				// dst[k] = v is a keyed copy: order-insensitive.
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if id, ok := ast.Unparen(ix.Index).(*ast.Ident); ok && keyObj != nil && p.info.Uses[id] == keyObj {
						continue
					}
				}
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				if keyOnlyAppend(rhs) {
					continue
				}
				if outer(lhs) && loopVar(rhs) {
					flag(n.Pos(), "writes a loop-dependent value to a variable that outlives the loop (last writer wins)")
					break
				}
			}
		}
		return true
	})
	// A return whose results read the key or value hands back whichever
	// entry the iteration met first. A closure's return leaves the closure,
	// not the loop, so this walk stays out of function literals.
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if slices.ContainsFunc(n.Results, loopVar) {
				flag(n.Pos(), "returns a loop-dependent value (first match wins)")
			}
		}
		return true
	})
}

// rangeVarObj resolves the object bound by a range clause variable.
func rangeVarObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id] // "for k = range m" with an existing variable
}

// rootIdent unwraps selectors, indexes, stars, and parens to the base
// identifier of an assignable expression.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			return nil
		}
	}
}
