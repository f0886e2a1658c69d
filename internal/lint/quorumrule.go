// Quorum-arithmetic rule. The paper's guarantees are carried by a handful of
// exact integer thresholds — "more than (n+k)/2" echoes to accept (Figure 2),
// 2k+1 / 3k+1 minimum process counts (Theorems 1-4), "more than n/2" witness
// majorities (Figure 1) — and internal/quorum implements each one once, in
// overflow- and rounding-audited form. An open-coded `(n+k)/2` elsewhere is a
// latent fork: it can drift from the audited helper by one off-by-one and
// decide with a minority, which is exactly the class of bug no sampled test
// reliably catches.
//
// The rule flags threshold-shaped arithmetic over fault-parameter names
// (n-like: n/N; k-like: k/K, f/F) in any package outside
// Config.QuorumAllowedPkgs, and outside the specific functions named by
// Config.QuorumAllowedFuncs (sizing planners that legitimately own their
// arithmetic). Four shapes are recognized:
//
//   - half-split: (n±k)/2 — the Figure-2 accept/decide threshold family —
//     in any context, including as an array index or argument;
//   - scaled comparison: a comparison with 2*x or 3*x on one side and an
//     n-like or k-like reference on the other (2*count > n+k, 2*k >= n);
//   - halved comparison: a comparison against an n-like value divided by 2
//     (q < n/2);
//   - resilience bound: 2*k+1 or 3*k+1 (the minimum-process counts).
//
// Arithmetic that merely indexes with n (xs[n/2]) or scales an unrelated
// variable (i < 2*limit) is deliberately not matched.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// checkQuorumArith flags threshold arithmetic outside the audited packages.
func (a *analysis) checkQuorumArith() {
	for _, p := range a.pkgs {
		if slices.Contains(a.cfg.QuorumAllowedPkgs, p.path) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := p.info.Defs[fd.Name].(*types.Func)
				if _, exempt := a.quorumExempt[fn]; exempt {
					continue
				}
				a.checkQuorumIn(fd.Body)
			}
		}
	}
}

// checkQuorumIn walks one function body, reporting each outermost matching
// expression once (a comparison containing a half-split reports at the
// comparison, not twice).
func (a *analysis) checkQuorumIn(body *ast.BlockStmt) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		if what, hit := quorumShape(be); hit {
			a.report(be.Pos(), "quorumarith",
				"%s outside internal/quorum; route the threshold through the audited helpers (quorum.ExceedsHalf, ExceedsHalfNPlusK, EchoAcceptCount, MinProcesses, ...)",
				what)
			return false // subsumes nested shapes
		}
		return true
	}
	ast.Inspect(body, walk)
}

// quorumShape classifies one binary expression against the four threshold
// shapes, returning a human label on a match.
func quorumShape(be *ast.BinaryExpr) (string, bool) {
	switch be.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
		// Scaled comparison: 2*expr or 3*expr on one side, n/k named on the
		// other.
		if hasSmallScale(x) && refsFaultParam(y) {
			return "threshold comparison with a 2x/3x scaled count", true
		}
		if hasSmallScale(y) && refsFaultParam(x) {
			return "threshold comparison with a 2x/3x scaled count", true
		}
		// Halved comparison: one side is <n-like>/2.
		if isHalvedFaultParam(x) || isHalvedFaultParam(y) {
			return "comparison against a halved process count", true
		}
		return "", false
	case token.QUO:
		// Half-split: (n±k)/2 anywhere.
		if isIntLit(be.Y, "2") {
			if num, ok := ast.Unparen(be.X).(*ast.BinaryExpr); ok &&
				(num.Op == token.ADD || num.Op == token.SUB) &&
				refsName(num, nLike) && refsName(num, kLike) {
				return "(n±k)/2 half-split", true
			}
		}
		return "", false
	case token.ADD:
		// Resilience bound: 2*k+1 or 3*k+1 (either operand order).
		x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
		if (isIntLit(y, "1") && isScaledFaultParam(x)) ||
			(isIntLit(x, "1") && isScaledFaultParam(y)) {
			return "2k+1/3k+1 resilience bound", true
		}
		return "", false
	}
	return "", false
}

// nLike and kLike classify the final name of an identifier or selector as a
// process-count or fault-budget parameter.
func nLike(name string) bool {
	return strings.EqualFold(name, "n")
}

func kLike(name string) bool {
	return strings.EqualFold(name, "k") || strings.EqualFold(name, "f")
}

// refsFaultParam reports whether the expression references an n-like or
// k-like name anywhere.
func refsFaultParam(e ast.Expr) bool {
	return refsName(e, nLike) || refsName(e, kLike)
}

// refsName reports whether the expression contains an identifier or field
// selector whose final name satisfies match. Call results do not count: a
// name must be read, not computed.
func refsName(e ast.Expr, match func(string) bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			return false
		case *ast.SelectorExpr:
			if match(n.Sel.Name) {
				found = true
			}
			return false // the base (c in c.N) is not itself a parameter read
		case *ast.Ident:
			if match(n.Name) {
				found = true
			}
		}
		return !found
	})
	return found
}

// hasSmallScale reports whether the expression contains a 2*x or 3*x
// multiplication.
func hasSmallScale(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if be, ok := n.(*ast.BinaryExpr); ok && be.Op == token.MUL {
			if isIntLit(be.X, "2") || isIntLit(be.X, "3") ||
				isIntLit(be.Y, "2") || isIntLit(be.Y, "3") {
				found = true
			}
		}
		return !found
	})
	return found
}

// isHalvedFaultParam matches <expr-referencing-n>/2.
func isHalvedFaultParam(e ast.Expr) bool {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	return ok && be.Op == token.QUO && isIntLit(be.Y, "2") && refsName(be.X, nLike)
}

// isScaledFaultParam matches 2*<k-like> or 3*<k-like>.
func isScaledFaultParam(e ast.Expr) bool {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || be.Op != token.MUL {
		return false
	}
	if isIntLit(be.X, "2") || isIntLit(be.X, "3") {
		return refsName(be.Y, kLike)
	}
	if isIntLit(be.Y, "2") || isIntLit(be.Y, "3") {
		return refsName(be.X, kLike)
	}
	return false
}

// isIntLit matches a literal integer token with the given text.
func isIntLit(e ast.Expr, text string) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == text
}
