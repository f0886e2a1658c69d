// Lock-safety rule. PRs 5-8 made the live half of the repository genuinely
// concurrent — per-peer write locks with coalescing writers in netxport,
// wall-clock delivery timers in livenet, striped registries in metrics — and
// the invariant that keeps it wedge-free is a convention the compiler cannot
// see: never block on I/O or a channel while a mutex is held.
//
// lockblock enforces it over every package listed in Config.LockPkgs: a
// blocking operation (channel send/receive, select without default,
// time.Sleep, net dial/read/write, WaitGroup.Wait, io.ReadFull and friends, a
// configured blocking function, or a call that transitively reaches one)
// must not execute while a sync.Mutex/RWMutex is held. sync.Cond.Wait is
// exempt — it releases the mutex while waiting and is the blessed
// backpressure idiom.
//
// The analysis is a per-function held-set walk over the typed AST: lock
// classes are identified by (struct type, field name) for mutex fields and
// by object identity for mutex variables; branches are walked with copies of
// the held set and merged by intersection (a lock is "held" after a branch
// only if every non-terminating arm holds it), so only must-hold facts
// produce findings. Function literals are walked as independent roots with
// an empty held set — goroutine bodies and stored callbacks run on their own
// stacks — and calls reached through `go` or `defer` statements do not
// propagate blocking facts. Blocking summaries propagate transitively over
// the module's static call graph, so a helper that hides a net.Dial three
// calls deep still triggers lockblock at the outermost call made under a
// lock.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// blockingNetFuncPrefixes match package-level net functions that perform
// network I/O (net.Dial, net.DialTimeout, net.Listen, net.LookupHost, ...).
// Pure helpers (JoinHostPort, ParseIP) do not block.
var blockingNetFuncPrefixes = []string{"Dial", "Listen", "Lookup", "Resolve"}

// blockingNetMethods are methods on net package types that perform I/O.
var blockingNetMethods = map[string]bool{
	"Read": true, "Write": true, "Accept": true, "AcceptTCP": true,
	"ReadFrom": true, "WriteTo": true, "Dial": true, "DialContext": true,
}

// blockingIOFuncs are io package helpers that block until their reader or
// writer does.
var blockingIOFuncs = map[string]bool{
	"ReadFull": true, "ReadAll": true, "Copy": true, "CopyN": true, "CopyBuffer": true,
}

// lockOp classifies one sync mutex method call.
type lockOp int

const (
	opNone lockOp = iota
	opLock
	opUnlock
)

// heldSet is the ordered set of lock classes (e.g. "peerLink.mu") held on
// the current path.
type heldSet []string

// intersect keeps only the locks held in both sets, preserving a's order.
func intersect(a, b heldSet) heldSet {
	var out heldSet
	for _, class := range a {
		if slices.Contains(b, class) {
			out = append(out, class)
		}
	}
	return out
}

// lockAnalysis carries the package-local state of one locksafety pass.
type lockAnalysis struct {
	a        *analysis
	p        *pkgInfo
	blockVia map[*types.Func]string // may-block facts from buildLockFacts
}

// checkLockSafety runs lockblock over every configured package.
func (a *analysis) checkLockSafety() {
	blockVia := a.buildLockFacts()
	for _, p := range a.pkgs {
		if !slices.Contains(a.cfg.LockPkgs, p.path) {
			continue
		}
		la := &lockAnalysis{a: a, p: p, blockVia: blockVia}
		for _, root := range la.roots() {
			la.walkStmts(root.body.List, nil, root.name)
		}
	}
}

// lockRoot is one independently executing body: a declared function or a
// function literal (goroutine body, timer callback, stored closure).
type lockRoot struct {
	name string
	body *ast.BlockStmt
}

// roots lists every function declaration and every function literal in the
// package, in source order. Literals start with an empty held set: they run
// on their own stack, not their creator's.
func (la *lockAnalysis) roots() []lockRoot {
	var out []lockRoot
	for _, f := range la.p.files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, lockRoot{name: fd.Name.Name, body: fd.Body})
			name := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					out = append(out, lockRoot{name: name + " (func literal)", body: lit.Body})
				}
				return true
			})
		}
	}
	return out
}

// walkStmts walks a statement list with the given held set, returning the
// held set at the fall-through exit and whether every path terminated
// (returned) before reaching it.
func (la *lockAnalysis) walkStmts(stmts []ast.Stmt, held heldSet, fn string) (heldSet, bool) {
	for _, s := range stmts {
		var term bool
		held, term = la.walkStmt(s, held, fn)
		if term {
			return held, true
		}
	}
	return held, false
}

func (la *lockAnalysis) walkStmt(s ast.Stmt, held heldSet, fn string) (heldSet, bool) {
	switch s := s.(type) {
	case nil:
		return held, false
	case *ast.BlockStmt:
		return la.walkStmts(s.List, held, fn)
	case *ast.LabeledStmt:
		return la.walkStmt(s.Stmt, held, fn)
	case *ast.ExprStmt:
		return la.walkExpr(s.X, held, fn), false
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			held = la.walkExpr(r, held, fn)
		}
		for _, l := range s.Lhs {
			held = la.walkExpr(l, held, fn)
		}
		return held, false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						held = la.walkExpr(v, held, fn)
					}
				}
			}
		}
		return held, false
	case *ast.IncDecStmt:
		return la.walkExpr(s.X, held, fn), false
	case *ast.SendStmt:
		held = la.walkExpr(s.Chan, held, fn)
		held = la.walkExpr(s.Value, held, fn)
		la.blockWhileHeld(s.Arrow, held, fn, "channel send")
		return held, false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			held = la.walkExpr(r, held, fn)
		}
		return held, true
	case *ast.BranchStmt:
		// break/continue/goto leave the current straight-line path; treating
		// them as terminators keeps the post-branch merge from intersecting
		// with a path that jumped away.
		return held, true
	case *ast.GoStmt:
		// The spawned body runs on its own stack (walked as a separate root);
		// evaluate only the call operands, which run on this path.
		for _, arg := range s.Call.Args {
			held = la.walkExpr(arg, held, fn)
		}
		return held, false
	case *ast.IfStmt:
		held, _ = la.walkStmt(s.Init, held, fn)
		held = la.walkExpr(s.Cond, held, fn)
		thenHeld, thenTerm := la.walkStmts(s.Body.List, slices.Clone(held), fn)
		elseHeld, elseTerm := held, false
		if s.Else != nil {
			elseHeld, elseTerm = la.walkStmt(s.Else, slices.Clone(held), fn)
		}
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseHeld, false
		case elseTerm:
			return thenHeld, false
		default:
			return intersect(thenHeld, elseHeld), false
		}
	case *ast.ForStmt:
		held, _ = la.walkStmt(s.Init, held, fn)
		if s.Cond != nil {
			held = la.walkExpr(s.Cond, held, fn)
		}
		// The body is walked once for its own findings; lock-state changes
		// inside a loop body are balanced per iteration in well-formed code,
		// so the post-loop state is the pre-loop state (must-hold
		// approximation).
		la.walkStmts(s.Body.List, slices.Clone(held), fn)
		if s.Post != nil {
			la.walkStmt(s.Post, slices.Clone(held), fn)
		}
		return held, false
	case *ast.RangeStmt:
		held = la.walkExpr(s.X, held, fn)
		if t := la.p.info.TypeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				la.blockWhileHeld(s.Range, held, fn, "range over a channel")
			}
		}
		la.walkStmts(s.Body.List, slices.Clone(held), fn)
		return held, false
	case *ast.SwitchStmt:
		held, _ = la.walkStmt(s.Init, held, fn)
		if s.Tag != nil {
			held = la.walkExpr(s.Tag, held, fn)
		}
		return la.walkCases(s.Body, held, fn, hasDefaultCase(s.Body))
	case *ast.TypeSwitchStmt:
		held, _ = la.walkStmt(s.Init, held, fn)
		held, _ = la.walkStmt(s.Assign, held, fn)
		return la.walkCases(s.Body, held, fn, hasDefaultCase(s.Body))
	case *ast.SelectStmt:
		if !hasDefaultComm(s.Body) {
			la.blockWhileHeld(s.Select, held, fn, "select without default")
		}
		return la.walkCases(s.Body, held, fn, true)
	default:
		// Deferred calls run at return and are not walked here.
		return held, false
	}
}

// walkCases merges the arms of a switch/type-switch/select body. An absent
// default arm means the pre-state itself is a possible exit, so it joins the
// intersection.
func (la *lockAnalysis) walkCases(body *ast.BlockStmt, held heldSet, fn string, hasDefault bool) (heldSet, bool) {
	type arm struct {
		held heldSet
		term bool
	}
	var arms []arm
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			h := slices.Clone(held)
			for _, e := range c.List {
				h = la.walkExpr(e, h, fn)
			}
			h, t := la.walkStmts(c.Body, h, fn)
			arms = append(arms, arm{h, t})
		case *ast.CommClause:
			h := slices.Clone(held)
			if c.Comm != nil {
				// The comm op itself executes after selection; channel
				// blocking is reported once at the select, not per arm.
				if es, ok := c.Comm.(*ast.ExprStmt); ok {
					if ue, ok := es.X.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
						h = la.walkExpr(ue.X, h, fn)
					}
				}
			}
			h, t := la.walkStmts(c.Body, h, fn)
			arms = append(arms, arm{h, t})
		}
	}
	if !hasDefault {
		arms = append(arms, arm{held, false})
	}
	var out heldSet
	first := true
	allTerm := len(arms) > 0
	for _, a := range arms {
		if a.term {
			continue
		}
		allTerm = false
		if first {
			out, first = a.held, false
		} else {
			out = intersect(out, a.held)
		}
	}
	if allTerm {
		return held, true
	}
	return out, false
}

// walkExpr walks an expression for lock operations, blocking operations, and
// calls, returning the updated held set. Function literals are skipped: they
// are separate roots.
func (la *lockAnalysis) walkExpr(e ast.Expr, held heldSet, fn string) heldSet {
	switch e := e.(type) {
	case nil:
		return held
	case *ast.FuncLit:
		return held
	case *ast.UnaryExpr:
		held = la.walkExpr(e.X, held, fn)
		if e.Op == token.ARROW {
			la.blockWhileHeld(e.OpPos, held, fn, "channel receive")
		}
		return held
	case *ast.CallExpr:
		held = la.walkExpr(e.Fun, held, fn)
		for _, arg := range e.Args {
			held = la.walkExpr(arg, held, fn)
		}
		return la.applyCall(e, held, fn)
	case *ast.BinaryExpr:
		held = la.walkExpr(e.X, held, fn)
		return la.walkExpr(e.Y, held, fn)
	case *ast.ParenExpr:
		return la.walkExpr(e.X, held, fn)
	case *ast.SelectorExpr:
		return la.walkExpr(e.X, held, fn)
	case *ast.IndexExpr:
		held = la.walkExpr(e.X, held, fn)
		return la.walkExpr(e.Index, held, fn)
	case *ast.IndexListExpr:
		held = la.walkExpr(e.X, held, fn)
		for _, ix := range e.Indices {
			held = la.walkExpr(ix, held, fn)
		}
		return held
	case *ast.SliceExpr:
		held = la.walkExpr(e.X, held, fn)
		held = la.walkExpr(e.Low, held, fn)
		held = la.walkExpr(e.High, held, fn)
		return la.walkExpr(e.Max, held, fn)
	case *ast.StarExpr:
		return la.walkExpr(e.X, held, fn)
	case *ast.TypeAssertExpr:
		return la.walkExpr(e.X, held, fn)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			held = la.walkExpr(el, held, fn)
		}
		return held
	case *ast.KeyValueExpr:
		held = la.walkExpr(e.Key, held, fn)
		return la.walkExpr(e.Value, held, fn)
	default:
		return held
	}
}

// applyCall classifies one call on the walked path: a mutex operation
// updates the held set, a blocking operation reports lockblock, and a module
// call applies its transitive summary.
func (la *lockAnalysis) applyCall(call *ast.CallExpr, held heldSet, fn string) heldSet {
	if op, class, ok := la.mutexOp(call); ok {
		i := slices.Index(held, class)
		switch {
		case op == opLock && i < 0:
			held = append(slices.Clone(held), class)
		case op == opUnlock && i >= 0:
			held = append(held[:i:i], held[i+1:]...)
		}
		return held
	}

	callee := calleeFunc(la.p.info, call)
	if callee == nil {
		return held
	}
	if label, blocks := la.a.blockingCall(callee); blocks {
		la.blockWhileHeld(call.Pos(), held, fn, label)
	} else if via := la.blockVia[callee]; via != "" {
		la.blockWhileHeld(call.Pos(), held, fn,
			fmt.Sprintf("call to %s (reaches %s)", callee.Name(), via))
	}
	return held
}

// blockWhileHeld reports lockblock when the held set is non-empty.
func (la *lockAnalysis) blockWhileHeld(pos token.Pos, held heldSet, fn, what string) {
	if len(held) == 0 {
		return
	}
	names := slices.Clone(held)
	slices.Sort(names)
	la.a.report(pos, "lockblock",
		"%s in %s while %s is held; release the lock before blocking or move the operation out of the critical section",
		what, fn, strings.Join(names, " and "))
}

// mutexOp classifies a call as a sync.Mutex/RWMutex lock or unlock and
// resolves the lock class it targets.
func (la *lockAnalysis) mutexOp(call *ast.CallExpr) (lockOp, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, "", false
	}
	fn, ok := la.p.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return opNone, "", false
	}
	recv := recvTypeName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return opNone, "", false
	}
	var op lockOp
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return opNone, "", false
	}
	class, ok := la.lockClass(sel.X)
	if !ok {
		return opNone, "", false
	}
	return op, class, true
}

// lockClass names the mutex an expression denotes: "OwnerType.field" for a
// struct field, "<name>" for a package-level variable or a local. Field
// classes are shared across instances of the owning type.
func (la *lockAnalysis) lockClass(e ast.Expr) (string, bool) {
	info := la.p.info
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		obj, ok := info.Uses[e.Sel].(*types.Var)
		if !ok {
			return "", false
		}
		if obj.IsField() {
			owner := ""
			if t := info.TypeOf(e.X); t != nil {
				owner = namedTypeName(t)
			}
			if owner == "" {
				return "", false
			}
			return owner + "." + obj.Name(), true
		}
		return obj.Name(), true // package-level var accessed via pkg selector
	case *ast.Ident:
		obj, ok := info.Uses[e].(*types.Var)
		if !ok {
			return "", false
		}
		return obj.Name(), true
	}
	return "", false
}

// blockingCall reports whether a resolved callee is an inherently blocking
// standard-library operation or a configured blocking function, with a label
// for the diagnostic.
func (a *analysis) blockingCall(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	name := fn.Name()
	recv := recvTypeName(fn)
	switch pkg.Path() {
	case "time":
		if recv == "" && name == "Sleep" {
			return "time.Sleep", true
		}
	case "net":
		if recv == "" {
			for _, prefix := range blockingNetFuncPrefixes {
				if strings.HasPrefix(name, prefix) {
					return "net." + name, true
				}
			}
		} else if blockingNetMethods[name] {
			return "net." + recv + "." + name, true
		}
	case "io":
		if recv == "" && blockingIOFuncs[name] {
			return "io." + name, true
		}
	case "sync":
		if recv == "WaitGroup" && name == "Wait" {
			return "sync.WaitGroup.Wait", true
		}
	}
	name, ok := a.blocking[fn.Origin()]
	return name, ok
}

// buildLockFacts returns, for every module function that may block, a label
// naming the blocking operation it reaches, propagated over static calls
// (excluding go and defer statements) to a fixed point. Propagation runs
// breadth-first from the declarations in source order, so a label names a
// shortest chain to a blocking operation, with ties broken the same way on
// every run.
func (a *analysis) buildLockFacts() map[*types.Func]string {
	blockVia := make(map[*types.Func]string)
	callers := make(map[*types.Func][]*types.Func) // callee -> callers
	work := make([]*types.Func, 0, len(a.decls))
	for fn := range a.decls {
		work = append(work, fn)
	}
	slices.SortFunc(work, func(x, y *types.Func) int { return cmp.Compare(x.Pos(), y.Pos()) })

	for _, fn := range work {
		site := a.decls[fn]
		p := site.pkg
		setBlock := func(label string) {
			if blockVia[fn] == "" {
				blockVia[fn] = label
			}
		}
		skip := map[ast.Node]bool{}
		ast.Inspect(site.decl, func(n ast.Node) bool {
			if skip[n] {
				return false
			}
			switch n := n.(type) {
			case *ast.GoStmt:
				skip[n.Call] = true // spawned work does not block the caller
			case *ast.DeferStmt:
				skip[n.Call] = true // deferred work runs at return
			case *ast.FuncLit:
				return false // separate execution context
			case *ast.SendStmt:
				setBlock("channel send")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					setBlock("channel receive")
				}
			case *ast.RangeStmt:
				if t := p.info.TypeOf(n.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						setBlock("range over a channel")
					}
				}
			case *ast.SelectStmt:
				if !hasDefaultComm(n.Body) {
					setBlock("select without default")
				}
			case *ast.CallExpr:
				callee := calleeFunc(p.info, n)
				if callee == nil {
					return true
				}
				if label, blocks := a.blockingCall(callee); blocks {
					setBlock(label)
				} else if _, inModule := a.decls[callee]; inModule {
					callers[callee] = append(callers[callee], fn)
				}
			}
			return true
		})
	}

	// Propagate to a fixed point: a caller blocks if any callee blocks.
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		via := blockVia[fn]
		if via == "" {
			continue
		}
		for _, caller := range callers[fn] {
			if blockVia[caller] == "" {
				blockVia[caller] = fn.Name() + " -> " + via
				work = append(work, caller)
			}
		}
	}
	return blockVia
}

// hasDefaultCase reports whether a switch body has a default clause.
func hasDefaultCase(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// hasDefaultComm reports whether a select body has a default clause.
func hasDefaultComm(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// recvTypeName returns the bare name of a method's receiver type ("" for
// package-level functions), pointers stripped.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return namedTypeName(sig.Recv().Type())
}

// namedTypeName resolves a type to its named base ("peerLink" for
// *peerLink), or "" for unnamed types.
func namedTypeName(t types.Type) string {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Obj().Name()
		case *types.Alias:
			t = types.Unalias(tt)
		default:
			return ""
		}
	}
}
