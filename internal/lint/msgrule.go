// Message-kind exhaustiveness rule. The wire format multiplexes every
// protocol over one Message struct discriminated by msg.Kind, so a machine's
// dispatch decides per kind whether to act or drop — and the scary failure
// mode is the silent one: a new kind (PR 8 added Gossip and Ready) sails
// through an old machine's `if in.Kind != KindX` guard into the drop path
// without anyone ever having decided that is correct. Tests only sample the
// kinds they inject; this rule makes the position explicit in the source.
//
// For every dispatch root (each method named by Config.DispatchIfaces on
// every module type implementing that interface, plus the explicit
// Config.DispatchFuncs), the rule collects the same-package closure — the
// root plus every function in the root's own package statically reachable
// from it, excluding `go` statements — and requires that, if the closure
// reads the Kind type at all, it names every declared Kind constant: a
// mention is a position, whether it handles the kind or explicitly ignores
// it. Closures that never touch Kind (forwarding wrappers, always-silent
// machines) are exempt — they take no position because they make no
// decision. Mentions inside other packages do not count: a constructor in
// the msg package referencing KindEcho says nothing about what THIS machine
// does with echoes.
//
// Adding a tenth Kind constant therefore fails lint at every machine until
// each one either handles it or names it on an explicit ignore path.
package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// checkMsgExhaustive enforces kind coverage at every dispatch root.
func (a *analysis) checkMsgExhaustive() {
	kindType, kindConsts := a.lookupKindEnum()
	if kindType == nil || len(kindConsts) == 0 {
		return
	}
	for _, root := range a.dispatchRoots() {
		a.checkDispatchRoot(root, kindType, kindConsts)
	}
}

// lookupKindEnum resolves Config.MsgKindType to its named type and the
// package-level constants of that type, sorted by constant value (declaration
// order for an iota enum).
func (a *analysis) lookupKindEnum() (types.Type, []*types.Const) {
	name := a.cfg.MsgKindType
	dot := strings.LastIndex(name, ".")
	if dot < 0 {
		return nil, nil
	}
	pkgPath, typeName := name[:dot], name[dot+1:]
	for _, p := range a.pkgs {
		if p.path != pkgPath {
			continue
		}
		obj, ok := p.pkg.Scope().Lookup(typeName).(*types.TypeName)
		if !ok {
			return nil, nil
		}
		kt := obj.Type()
		var consts []*types.Const
		scope := p.pkg.Scope()
		for _, n := range scope.Names() {
			if c, ok := scope.Lookup(n).(*types.Const); ok && types.Identical(c.Type(), kt) {
				consts = append(consts, c)
			}
		}
		sort.Slice(consts, func(i, j int) bool {
			return constLess(consts[i], consts[j])
		})
		return kt, consts
	}
	return nil, nil
}

func constLess(a, b *types.Const) bool {
	av, aok := constant.Uint64Val(a.Val())
	bv, bok := constant.Uint64Val(b.Val())
	if aok && bok && av != bv {
		return av < bv
	}
	return a.Name() < b.Name()
}

// dispatchRoots resolves the configured dispatch entry points.
func (a *analysis) dispatchRoots() []*declSite {
	var out []*declSite
	seen := map[*ast.FuncDecl]bool{}
	add := func(fn *types.Func) {
		site, ok := a.decls[fn]
		if !ok || seen[site.decl] {
			return
		}
		seen[site.decl] = true
		out = append(out, site)
	}
	for _, spec := range a.cfg.DispatchIfaces {
		dot := strings.LastIndex(spec, ".") // checkConfig resolved spec
		for _, fn := range a.implementors(a.lookupInterface(spec[:dot]), spec[dot+1:]) {
			add(fn)
		}
	}
	for _, key := range a.cfg.DispatchFuncs {
		add(a.funcs[key])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].decl.Pos() < out[j].decl.Pos() })
	return out
}

// checkDispatchRoot verifies one dispatch root's closure.
func (a *analysis) checkDispatchRoot(root *declSite, kindType types.Type, kindConsts []*types.Const) {
	closure := a.samePackageClosure(root)
	mentioned := map[*types.Const]bool{}
	readsKind := false
	for _, site := range closure {
		info := site.pkg.info
		ast.Inspect(site.decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				return true // body still scanned: mentions count wherever they appear
			case *ast.Ident:
				obj := info.Uses[n]
				if obj == nil {
					obj = info.Defs[n]
				}
				if c, ok := obj.(*types.Const); ok && types.Identical(c.Type(), kindType) {
					mentioned[c] = true
					readsKind = true
				}
			case *ast.SelectorExpr:
				if v, ok := info.Uses[n.Sel].(*types.Var); ok && v.IsField() && types.Identical(v.Type(), kindType) {
					readsKind = true
				}
			}
			return true
		})
	}
	if !readsKind {
		return // forwarding wrapper or always-silent machine: no decision made
	}
	var missing []string
	for _, c := range kindConsts {
		if !mentioned[c] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	name := root.decl.Name.Name
	if recv := recvTypeName(root.pkg.info.Defs[root.decl.Name].(*types.Func)); recv != "" {
		name = recv + "." + name
	}
	a.report(root.decl.Pos(), "msgexhaustive",
		"%s dispatches on %s but takes no position on %s; handle each kind or name it on an explicit ignore path",
		name, a.cfg.MsgKindType, strings.Join(missing, ", "))
}

// samePackageClosure returns the root plus every function in the root's
// package statically reachable from it (method values and direct calls;
// interface calls are not followed — they leave the package's decision
// scope).
func (a *analysis) samePackageClosure(root *declSite) []*declSite {
	var out []*declSite
	seen := map[*ast.FuncDecl]bool{}
	work := []*declSite{root}
	for len(work) > 0 {
		site := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[site.decl] {
			continue
		}
		seen[site.decl] = true
		out = append(out, site)
		info := site.pkg.info
		ast.Inspect(site.decl, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			next, ok := a.decls[fn]
			if !ok || next.pkg != root.pkg {
				return true
			}
			work = append(work, next)
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].decl.Pos() < out[j].decl.Pos() })
	return out
}
