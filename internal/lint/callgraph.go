// Hot-set computation: which functions are reachable from the machine-step /
// event-dispatch roots? The walk is a conservative static call graph over the
// typed ASTs: direct calls and method calls with concrete receivers follow
// the resolved object; calls through an interface fan out to every module
// type implementing that interface; any other reference to a module function
// (a method value, a callback argument) marks the referenced function hot as
// well. Over-approximation only ever produces an extra diagnostic, which the
// //lint:allow escape hatch can silence with a reason.
package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// buildHotSet seeds the hot roots from cfg.HotIfaces and cfg.HotFuncs and
// propagates reachability.
func (a *analysis) buildHotSet() {
	a.hot = make(map[*ast.FuncDecl]*pkgInfo)
	var work []*declSite

	add := func(obj *types.Func) {
		site, ok := a.decls[obj]
		if !ok {
			return // not declared in this module
		}
		if _, seen := a.hot[site.decl]; seen {
			return
		}
		a.hot[site.decl] = site.pkg
		work = append(work, site)
	}

	// Roots 1: every method of every module type implementing a hot
	// interface (e.g. each protocol machine's Start/OnMessage/Decided...).
	for _, ifaceName := range a.cfg.HotIfaces {
		iface := a.lookupInterface(ifaceName) // checkConfig resolved it
		for i := range iface.NumMethods() {
			for _, fn := range a.implementors(iface, iface.Method(i).Name()) {
				add(fn)
			}
		}
	}

	// Roots 2: explicitly named dispatch functions.
	for _, key := range a.cfg.HotFuncs {
		add(a.funcs[key])
	}

	// Propagate: walk each hot body (function literals included — a literal
	// defined on a hot path runs on it) and mark everything it can reach.
	for len(work) > 0 {
		site := work[len(work)-1]
		work = work[:len(work)-1]
		info := site.pkg.info
		ast.Inspect(site.decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if fn, ok := info.Uses[n].(*types.Func); ok {
					add(fn)
				}
			case *ast.SelectorExpr:
				if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
					if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
						for _, fn := range a.implementors(iface, n.Sel.Name) {
							add(fn)
						}
					}
				}
			}
			return true
		})
	}
}

// lookupInterface resolves "importpath.Name" to an interface type among the
// loaded module packages.
func (a *analysis) lookupInterface(name string) *types.Interface {
	dot := strings.LastIndex(name, ".")
	if dot < 0 {
		return nil
	}
	pkgPath, typeName := name[:dot], name[dot+1:]
	for _, p := range a.pkgs {
		if p.path != pkgPath {
			continue
		}
		obj := p.pkg.Scope().Lookup(typeName)
		if obj == nil {
			return nil
		}
		iface, _ := obj.Type().Underlying().(*types.Interface)
		return iface
	}
	return nil
}

// implementor is one module type implementing an interface: the named
// type or its pointer, with the package that declares it.
type implementor struct {
	t   types.Type
	pkg *types.Package
}

// implementors returns, across the whole module, the named method of every
// type implementing iface: the possible dynamic targets of an interface call.
// The scan over every module type runs once per interface; later calls look
// the method up on the cached types.
func (a *analysis) implementors(iface *types.Interface, method string) []*types.Func {
	impls, ok := a.impls[iface]
	if !ok {
		impls = a.implementingTypes(iface)
		if a.impls == nil {
			a.impls = make(map[*types.Interface][]implementor)
		}
		a.impls[iface] = impls
	}
	var out []*types.Func
	for _, im := range impls {
		obj, _, _ := types.LookupFieldOrMethod(im.t, true, im.pkg, method)
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, fn)
		}
	}
	return out
}

// implementingTypes scans every named module type for iface's implementors.
func (a *analysis) implementingTypes(iface *types.Interface) []implementor {
	var out []implementor
	for _, p := range a.pkgs {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			t := types.Type(named)
			if !types.Implements(t, iface) {
				t = types.NewPointer(named)
				if !types.Implements(t, iface) {
					continue
				}
			}
			out = append(out, implementor{t, p.pkg})
		}
	}
	return out
}

// declKey renders a function declaration as "importpath.Func" or
// "importpath.Type.Method" (pointer receivers stripped), the HotFuncs form.
func declKey(p *pkgInfo, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return p.path + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver [T]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		default:
			if id, ok := t.(*ast.Ident); ok {
				return p.path + "." + id.Name + "." + fd.Name.Name
			}
			return p.path + "." + fd.Name.Name
		}
	}
}
