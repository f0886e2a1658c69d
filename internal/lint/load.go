// Module loading: parse and type-check every package in a module using only
// the standard library. Module-internal imports are resolved recursively by
// this loader; everything else (the standard library) goes through the
// go/importer source importer, which type-checks GOROOT packages from source
// and therefore needs no pre-built export data.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"sort"
	"strings"
)

// pkgInfo is one fully type-checked module package.
type pkgInfo struct {
	path  string // import path
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loader resolves and type-checks module packages on demand.
type loader struct {
	fset    *token.FileSet
	root    string // module root directory
	modPath string // module path from go.mod
	std     types.Importer
	pkgs    map[string]*pkgInfo
	loading map[string]bool
}

// loadModule type-checks every package under dir's module and returns them
// sorted by import path.
func loadModule(dir string) ([]*pkgInfo, *token.FileSet, error) {
	modPath, err := readModulePath(path.Join(dir, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	// The source importer consults build.Default; with cgo disabled every
	// package we touch (net included) resolves to its pure-Go variant, so no
	// C toolchain is needed.
	build.Default.CgoEnabled = false
	l := &loader{
		fset:    fset,
		root:    dir,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*pkgInfo),
		loading: make(map[string]bool),
	}
	dirs, err := packageDirs(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range dirs {
		importPath := modPath
		if d != "." {
			importPath = path.Join(modPath, d)
		}
		if _, err := l.load(importPath); err != nil {
			return nil, nil, err
		}
	}
	out := make([]*pkgInfo, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out, fset, nil
}

// Import implements types.Importer, routing module-internal paths to this
// loader and everything else to the source importer.
func (l *loader) Import(importPath string) (*types.Package, error) {
	if importPath == l.modPath || strings.HasPrefix(importPath, l.modPath+"/") {
		p, err := l.load(importPath)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return l.std.Import(importPath)
}

// load type-checks one module package (memoized).
func (l *loader) load(importPath string) (*pkgInfo, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	rel := "."
	if importPath != l.modPath {
		rel = strings.TrimPrefix(importPath, l.modPath+"/")
	}
	dir := l.root
	if rel != "." {
		dir = path.Join(l.root, rel)
	}
	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, path.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l, FakeImportC: true}
	pkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	p := &pkgInfo{path: importPath, files: files, pkg: pkg, info: info}
	l.pkgs[importPath] = p
	return p, nil
}

// packageDirs returns every directory under root (relative, slash form, "."
// for the root itself) that contains at least one non-test Go file, skipping
// testdata, vendor, and hidden or underscore directories.
func packageDirs(root string) ([]string, error) {
	var out []string
	var walk func(rel string) error
	walk = func(rel string) error {
		dir := root
		if rel != "." {
			dir = path.Join(root, rel)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		hasGo := false
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() {
				if name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					continue
				}
				sub := name
				if rel != "." {
					sub = path.Join(rel, name)
				}
				// A nested module belongs to a different build; skip it.
				if _, err := os.Stat(path.Join(dir, name, "go.mod")); err == nil {
					continue
				}
				if err := walk(sub); err != nil {
					return err
				}
				continue
			}
			if isLintableGoFile(name) {
				hasGo = true
			}
		}
		if hasGo {
			out = append(out, rel)
		}
		return nil
	}
	if err := walk("."); err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// goFileNames returns the sorted non-test Go files in dir.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && isLintableGoFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func isLintableGoFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", fmt.Errorf("lint: %w (is the directory a module root?)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", file)
}
