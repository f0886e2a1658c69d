// Command consensuslint runs the project's static-analysis suite (see
// internal/lint) over the module and reports findings as
// "file:line: [rule] message" lines or as GitHub Actions annotations.
//
// Usage:
//
//	consensuslint [-format=text|github] [-C dir] [patterns...]
//
// -format=github emits one "::error file=...,line=..." workflow command per
// finding so a CI step's findings render inline on the pull request diff.
//
// Patterns follow the go tool convention relative to the module root:
// "./..." (the default) checks everything, "./internal/echo" one package,
// "./internal/mc/..." a subtree. The whole module is always loaded and
// analyzed — the hot-path call graph spans packages — and patterns filter
// which findings are reported.
//
// Exit status: 0 when clean, 1 on findings, 2 on usage or load errors or a
// configured root or exemption that names nothing in the module.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"resilient/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("consensuslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text or github (Actions annotations)")
	dir := fs.String("C", "", "module root (default: locate go.mod upward from the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "github" {
		fmt.Fprintf(stderr, "consensuslint: unknown -format %q (want text or github)\n", *format)
		return 2
	}
	root := *dir
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(stderr, "consensuslint:", err)
			return 2
		}
		root, err = findModuleRoot(wd)
		if err != nil {
			fmt.Fprintln(stderr, "consensuslint:", err)
			return 2
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, err := lint.Run(lint.ProjectConfig(root))
	if err != nil {
		fmt.Fprintln(stderr, "consensuslint:", err)
		return 2
	}
	findings = filterByPatterns(findings, patterns)

	if *format == "github" {
		stdout.Write(lint.WriteGitHub(findings))
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "consensuslint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// findModuleRoot walks upward from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// filterByPatterns keeps findings whose file matches any pattern.
func filterByPatterns(findings []lint.Finding, patterns []string) []lint.Finding {
	out := findings[:0]
	for _, f := range findings {
		for _, p := range patterns {
			if matchPattern(p, f.File) {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// matchPattern reports whether the module-relative file path falls under the
// go-style package pattern.
func matchPattern(pattern, file string) bool {
	pattern = strings.TrimPrefix(pattern, "./")
	dir := ""
	if i := strings.LastIndex(file, "/"); i >= 0 {
		dir = file[:i]
	}
	switch {
	case pattern == "..." || pattern == "":
		return true
	case strings.HasSuffix(pattern, "/..."):
		prefix := strings.TrimSuffix(pattern, "/...")
		if prefix == "." || prefix == "" {
			return true
		}
		return dir == prefix || strings.HasPrefix(dir, prefix+"/")
	case pattern == ".":
		return dir == ""
	default:
		return dir == strings.TrimSuffix(pattern, "/")
	}
}
