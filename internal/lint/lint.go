// Package lint is consensuslint: a stdlib-only static-analysis suite that
// enforces this repository's execution-model invariants at compile time.
//
// The simulator's correctness argument (DESIGN §7, EXPERIMENTS.md) rests on
// every run being a pure function of (Config, Seed): goldens, ensemble
// merges, and the workers=1..N determinism guarantee all assume it. The
// zero-allocation hot path (DESIGN §6) and the cached-metric-handle
// discipline are equally load-bearing for throughput. Those invariants were
// previously guarded only by golden files and benchmarks, which catch a
// violation after it has corrupted a run; the analyzers here reject the
// violating code before it compiles into an experiment.
//
// Rule families (each finding is tagged [rule]):
//
//   - determinism: walltime, globalrand, maprange, goroutine — deterministic
//     packages must not read wall clocks, draw from the process-global RNG,
//     iterate maps in an order-sensitive way, or spawn goroutines outside
//     the blessed parallel entry points.
//   - hot-path allocations: hotalloc — functions reachable from the
//     machine-step/event-dispatch call graph must not call fmt formatters,
//     concatenate strings, box integers into interfaces, capture closures,
//     or allocate maps.
//   - metrics discipline: metricshandle — metrics.Registry handle resolution
//     (Counter/Gauge/Histogram/Scoped) must happen once at construction, not
//     inside loops or step bodies.
//   - lock safety: lockblock — in the packages with real concurrency, no
//     blocking operation may run while a mutex is held (locksafety.go).
//   - message exhaustiveness: msgexhaustive — every protocol machine's
//     dispatch must take an explicit position (handle or named ignore) on
//     every msg.Kind constant, so adding a kind fails lint until every
//     machine decides (msgrule.go).
//   - quorum arithmetic: quorumarith — consensus-threshold arithmetic on n
//     and k belongs in internal/quorum; open-coded (n+k)/2, 2*k+1, or n/2
//     comparisons elsewhere are findings (quorumrule.go).
//
// A finding may be suppressed with a directive on the same line or the line
// immediately above:
//
//	//lint:allow <rule> <reason>
//
// The reason is mandatory and malformed or unused directives are themselves
// findings (rule "allow"), so the escape hatch cannot rot silently.
//
// The implementation is stdlib-only by design (go/parser + go/types with the
// source importer); it does not depend on golang.org/x/tools.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Finding is one diagnostic. File is slash-separated and relative to the
// module root, so output is byte-identical regardless of where the module is
// checked out.
type Finding struct {
	File    string
	Line    int
	Col     int
	Rule    string
	Message string
}

// String renders the finding in the canonical "file:line: [rule] message"
// form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Message)
}

// Config selects the module to analyze and parameterizes the project-specific
// rules, so the same analyzers run against both the real tree and the test
// fixtures.
type Config struct {
	// Dir is the module root (the directory containing go.mod).
	Dir string
	// DeterministicPkgs lists import paths subject to the determinism rules
	// (walltime, globalrand, maprange, goroutine).
	DeterministicPkgs []string
	// GoroutineAllowed lists deterministic packages that are nevertheless
	// blessed parallel entry points and may spawn goroutines.
	GoroutineAllowed []string
	// MetricsPkg is the import path of the metrics registry package whose
	// Counter/Gauge/Histogram/Scoped lookups the metricshandle rule tracks.
	MetricsPkg string
	// HotIfaces lists interfaces ("importpath.Name") whose implementing
	// methods are hot-path roots (the protocol Machine contract).
	HotIfaces []string
	// HotFuncs lists additional hot-path roots as "importpath.Func" or
	// "importpath.Type.Method" (receiver base type, pointer stripped).
	HotFuncs []string
	// LockPkgs lists import paths subject to the lock-safety rule
	// (lockblock): the packages with real mutexes.
	LockPkgs []string
	// BlockingFuncs lists functions treated as blocking operations by the
	// lockblock rule, as "importpath.Func" or "importpath.Type.Method"
	// (interface methods included — e.g. a transport's Send, which may
	// block on backpressure).
	BlockingFuncs []string
	// MsgKindType is the fully qualified named type ("importpath.Name")
	// whose constants every dispatch root must cover (msgexhaustive).
	MsgKindType string
	// DispatchIfaces lists dispatch roots as "importpath.Iface.Method":
	// that method of every module type implementing the interface.
	DispatchIfaces []string
	// DispatchFuncs lists additional dispatch roots in the HotFuncs form.
	DispatchFuncs []string
	// QuorumAllowedPkgs lists import paths where threshold arithmetic on
	// n and k is audited and therefore legal (quorumarith).
	QuorumAllowedPkgs []string
	// QuorumAllowedFuncs lists individual functions (HotFuncs form) exempt
	// from quorumarith — sizing planners that own their arithmetic.
	QuorumAllowedFuncs []string
	// Rules optionally restricts the run to the named rule families
	// ("determinism", "hotalloc", "metricshandle",
	// "locksafety", "msgexhaustive", "quorumarith"). Empty means all. Used
	// by the per-family benchmarks; the CLI always runs everything.
	Rules []string
}

// ProjectConfig returns the configuration for this repository's module
// rooted at dir.
func ProjectConfig(dir string) Config {
	const mod = "resilient"
	det := []string{
		mod + "/internal/runtime",
		mod + "/internal/failstop",
		mod + "/internal/malicious",
		mod + "/internal/echo",
		mod + "/internal/benor",
		mod + "/internal/mc",
		mod + "/internal/sweep",
		mod + "/internal/experiments",
		mod + "/internal/policy",
		mod + "/internal/sample",
		// The registry, the coin sources and the spawner sit under every
		// replayable run: a wall-clock read or map iteration there would
		// leak into all of them.
		mod + "/internal/proto",
		mod + "/internal/coin",
		mod + "/internal/spawn",
		// The remaining machines, adversaries and fault plans, the
		// state-space explorer, and the helpers they all step through.
		mod + "/internal/majority",
		mod + "/internal/bivalence",
		mod + "/internal/byzantine",
		mod + "/internal/faults",
		mod + "/internal/adversary",
		mod + "/internal/explore",
		mod + "/internal/dense",
		mod + "/internal/dist",
		mod + "/internal/markov",
		mod + "/internal/quorum",
		mod + "/internal/msg",
		mod + "/internal/core",
		// The invariant checker judges replayed runs: its verdicts must be
		// as reproducible as the runs themselves.
		mod + "/internal/check",
	}
	return Config{
		Dir:               dir,
		DeterministicPkgs: det,
		GoroutineAllowed: []string{
			mod + "/internal/sweep",
			mod + "/internal/mc",
		},
		MetricsPkg: mod + "/internal/metrics",
		HotIfaces: []string{
			mod + "/internal/core.Machine",
			// Link policies run once per message send on every engine.
			mod + "/internal/policy.LinkPolicy",
			// Coin sources flip once per randomized-protocol coin round on
			// every machine; the shared source is also read concurrently
			// from live-engine goroutines, so it must stay allocation-free.
			mod + "/internal/coin.Source",
		},
		HotFuncs: []string{
			// The discrete-event dispatch loop: deliver/dispatch/enqueue and
			// the event queue follow by static calls.
			mod + "/internal/runtime.runner.loop",
			// The Monte-Carlo per-phase chain step. The lowercase inner step
			// is the per-phase unit: AbsorptionRun resolves metric handles
			// once (atomic-cached) and then calls step in the phase loop, so
			// re-introducing per-phase handle resolution or allocation
			// inside step is exactly what must be caught.
			mod + "/internal/mc.Chain.step",
			// The TCP transport's per-message paths: send covers the
			// encode/enqueue/flush chain (appendFrame, enqueueLocked,
			// writeLoop, flushBatch follow by static calls), readLoop covers
			// the streaming decode/demux chain. Cold subpaths (dial errors,
			// misuse errors) carry lint:allow annotations.
			mod + "/internal/netxport.Endpoint.send",
			mod + "/internal/netxport.Endpoint.readLoop",
			// The replicated log's per-slot commit/batch path: recordSlot
			// folds every decided slot into the report and the metrics
			// registry, batchFrames packs each batch into wire chunks; both
			// run once per slot in the pipelined commit loop.
			mod + ".logRun.recordSlot",
			mod + ".batchFrames",
			// The echo stage: Observe is Figure 2's per-echo tally, full or
			// sampled (the broadcast machine counts in place, a core.Machine
			// method), trial replays whole broadcasts inside the MC ensemble.
			mod + "/internal/echo.Tracker.Observe",
			mod + "/internal/mc.Broadcast.trial",
		},
		LockPkgs: []string{
			// The packages with real mutexes: the TCP transport's per-peer
			// links and endpoint table, the livenet policy layer's delivery
			// timers, the in-memory transports, the metrics registry, the
			// trace buffer, and the sweep error latch.
			mod + "/internal/netxport",
			mod + "/internal/livenet",
			mod + "/internal/transport",
			mod + "/internal/metrics",
			mod + "/internal/trace",
			mod + "/internal/sweep",
		},
		BlockingFuncs: []string{
			// transport.Conn sends may block on backpressure (netxport's
			// queue cap) and receives always block; neither belongs inside a
			// critical section.
			mod + "/internal/transport.Conn.Send",
			mod + "/internal/transport.Conn.Recv",
		},
		MsgKindType: mod + "/internal/msg.Kind",
		DispatchIfaces: []string{
			// Every protocol machine's message dispatch must cover the wire
			// kinds; forwarding wrappers that never read Kind are exempt.
			mod + "/internal/core.Machine.OnMessage",
		},
		QuorumAllowedPkgs: []string{
			// quorum owns the audited threshold helpers; dist derives its
			// view distributions from the same bounds.
			mod + "/internal/quorum",
			mod + "/internal/dist",
		},
		QuorumAllowedFuncs: []string{
			// The sampled-broadcast planner sizes its samples from the
			// ε-tail analysis (arXiv 1908.01738), not the Figure-2 quorums;
			// its arithmetic is audited in plan_test.go against the paper.
			mod + "/internal/sample.NewPlan",
			mod + "/internal/sample.sizeStage",
			mod + "/internal/sample.minSafetyThreshold",
			mod + "/internal/sample.Plan.Degenerate",
			mod + "/internal/sample.Plan.EchoFailure",
		},
	}
}

// Run loads every package in the module at cfg.Dir and returns all findings,
// sorted by (file, line, col, rule, message). A nil slice with a nil error
// means the tree is clean. Run fails when the module does not load or when
// an entry of cfg's function, interface or package lists names nothing in
// it.
func Run(cfg Config) ([]Finding, error) {
	pkgs, fset, err := loadModule(cfg.Dir)
	if err != nil {
		return nil, err
	}
	return runLoaded(cfg, pkgs, fset)
}

// runLoaded analyzes an already-loaded module. Splitting the load from the
// analysis lets BenchmarkLintTree time each rule family without re-parsing
// and re-type-checking the tree per family.
func runLoaded(cfg Config, pkgs []*pkgInfo, fset *token.FileSet) ([]Finding, error) {
	a := &analysis{cfg: cfg, fset: fset, pkgs: pkgs}
	a.buildIndex()
	if err := a.checkConfig(); err != nil {
		return nil, err
	}
	a.buildHotSet()
	if a.ruleOn("determinism") {
		a.checkDeterminism()
	}
	if a.ruleOn("hotalloc") {
		a.checkHotAllocs()
	}
	if a.ruleOn("metricshandle") {
		a.checkMetricsDiscipline()
	}
	if a.ruleOn("locksafety") {
		a.checkLockSafety()
	}
	if a.ruleOn("msgexhaustive") {
		a.checkMsgExhaustive()
	}
	if a.ruleOn("quorumarith") {
		a.checkQuorumArith()
	}
	a.applyAllowDirectives()
	sortFindings(a.findings)
	return a.findings, nil
}

// checkConfig returns an error listing every root, blocking function,
// exemption, package and single-name setting (MetricsPkg, MsgKindType) in
// the config that names nothing in the module. Like
// a stale //lint:allow, an entry left behind by a rename or a deletion would
// otherwise guard nothing without anyone noticing. It keeps the resolved
// blocking functions and quorum exemptions for the rules to test by object.
func (a *analysis) checkConfig() error {
	var stale []string
	check := func(field string, entries []string, resolves func(string) bool) {
		for _, e := range entries {
			if !resolves(e) {
				stale = append(stale, fmt.Sprintf("%s entry %q", field, e))
			}
		}
	}
	isFunc := func(e string) bool { return a.funcs[e] != nil }
	funcSet := func(field string, entries []string) map[*types.Func]string {
		set := make(map[*types.Func]string, len(entries))
		check(field, entries, func(e string) bool {
			fn := a.funcs[e]
			if fn != nil {
				set[fn] = e
			}
			return fn != nil
		})
		return set
	}
	check("HotFuncs", a.cfg.HotFuncs, isFunc)
	check("DispatchFuncs", a.cfg.DispatchFuncs, isFunc)
	a.blocking = funcSet("BlockingFuncs", a.cfg.BlockingFuncs)
	a.quorumExempt = funcSet("QuorumAllowedFuncs", a.cfg.QuorumAllowedFuncs)
	check("HotIfaces", a.cfg.HotIfaces, func(e string) bool { return a.lookupInterface(e) != nil })
	check("DispatchIfaces", a.cfg.DispatchIfaces, func(e string) bool {
		return isFunc(e) && a.lookupInterface(e[:strings.LastIndex(e, ".")]) != nil
	})
	isPkg := func(e string) bool {
		return slices.ContainsFunc(a.pkgs, func(p *pkgInfo) bool { return p.path == e })
	}
	// The single-name settings gate whole rules: a stale one would silently
	// drop every metricshandle or msgexhaustive finding.
	one := func(e string) []string {
		if e == "" {
			return nil
		}
		return []string{e}
	}
	check("MetricsPkg", one(a.cfg.MetricsPkg), isPkg)
	check("MsgKindType", one(a.cfg.MsgKindType), func(string) bool {
		kind, _ := a.lookupKindEnum()
		return kind != nil
	})
	check("DeterministicPkgs", a.cfg.DeterministicPkgs, isPkg)
	check("GoroutineAllowed", a.cfg.GoroutineAllowed, isPkg)
	check("LockPkgs", a.cfg.LockPkgs, isPkg)
	check("QuorumAllowedPkgs", a.cfg.QuorumAllowedPkgs, isPkg)
	if len(stale) > 0 {
		return fmt.Errorf("config names nothing in the module: %s", strings.Join(stale, "; "))
	}
	return nil
}

// ruleOn reports whether a rule family runs under cfg.Rules (empty = all).
func (a *analysis) ruleOn(family string) bool {
	return len(a.cfg.Rules) == 0 || slices.Contains(a.cfg.Rules, family)
}

// WriteGitHub renders findings as GitHub Actions workflow commands, one
// "::error" annotation per finding, so a CI step's findings attach inline to
// the offending lines of a pull request. Empty findings render nothing.
func WriteGitHub(findings []Finding) []byte {
	var b strings.Builder
	for _, f := range findings {
		fmt.Fprintf(&b, "::error file=%s,line=%d,col=%d,title=consensuslint %s::%s\n",
			f.File, f.Line, f.Col, f.Rule, githubEscape(f.Message))
	}
	return []byte(b.String())
}

// githubEscape encodes the characters the workflow-command grammar reserves
// in message data.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// analysis carries the loaded module and accumulates findings.
type analysis struct {
	cfg          Config
	fset         *token.FileSet
	pkgs         []*pkgInfo
	decls        map[*types.Func]*declSite
	funcs        map[string]*types.Func // by HotFuncs-form key; interface methods too
	blocking     map[*types.Func]string // resolved BlockingFuncs, to their entries
	quorumExempt map[*types.Func]string // resolved QuorumAllowedFuncs, to their entries
	hot          map[*ast.FuncDecl]*pkgInfo
	impls        map[*types.Interface][]implementor // implementing types, by interface
	findings     []Finding
}

// declSite locates one module-level function declaration.
type declSite struct {
	pkg  *pkgInfo
	decl *ast.FuncDecl
}

func (a *analysis) report(pos token.Pos, rule, format string, args ...interface{}) {
	p := a.fset.Position(pos)
	file := p.Filename
	if rel, ok := relPath(a.cfg.Dir, file); ok {
		file = rel
	}
	a.findings = append(a.findings, Finding{
		File:    file,
		Line:    p.Line,
		Col:     p.Column,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// buildIndex maps every module function object to its declaration.
func (a *analysis) buildIndex() {
	a.decls = make(map[*types.Func]*declSite)
	a.funcs = make(map[string]*types.Func)
	for _, p := range a.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				if obj, ok := p.info.Defs[fd.Name].(*types.Func); ok {
					a.decls[obj] = &declSite{pkg: p, decl: fd}
					a.funcs[declKey(p, fd)] = obj
				}
			}
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := range iface.NumMethods() {
					a.funcs[p.path+"."+name+"."+iface.Method(i).Name()] = iface.Method(i)
				}
			}
		}
	}
}

// isDeterministic reports whether the package is subject to the determinism
// rule family.
func (a *analysis) isDeterministic(p *pkgInfo) bool {
	return slices.Contains(a.cfg.DeterministicPkgs, p.path)
}

// calleeFunc resolves the function object a call expression invokes, or nil
// for builtins, conversions, and calls through plain function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// stdFuncCall reports whether call invokes pkgPath.name (a package-level
// function of an imported package).
func stdFuncCall(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false
	}
	return fn.Name(), true
}

// builtinCall reports whether the call invokes the named builtin. Builtins
// resolve to *types.Builtin in Uses (or to nothing in degenerate files),
// never to a package-level object, so a plain nil test misses them.
func builtinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		return true
	}
	_, ok = obj.(*types.Builtin)
	return ok
}

// relPath returns file relative to root in slash form.
func relPath(root, file string) (string, bool) {
	root = strings.TrimSuffix(root, "/")
	if root == "" || root == "." {
		return strings.TrimPrefix(file, "./"), true
	}
	if strings.HasPrefix(file, root+"/") {
		return strings.TrimPrefix(file, root+"/"), true
	}
	return file, false
}
