// The //lint:allow escape hatch.
//
// Grammar, one directive per comment line:
//
//	//lint:allow <rule> <reason...>
//
// placed either on the offending line or on the line directly above it. The
// reason is mandatory: an allow is a reviewed, justified exception, and the
// justification travels with the code. A directive that is malformed or that
// suppresses nothing is itself reported under rule "allow", so stale
// exceptions surface instead of rotting.
package lint

import (
	"strings"
)

const allowPrefix = "//lint:allow"

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	file string
	line int
	rule string
	used bool
}

// applyAllowDirectives drops findings covered by well-formed directives and
// appends findings for malformed or unused ones.
func (a *analysis) applyAllowDirectives() {
	var directives []*allowDirective
	for _, p := range a.pkgs {
		for _, f := range p.files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, allowPrefix) {
						continue
					}
					pos := a.fset.Position(c.Pos())
					rest := strings.TrimPrefix(c.Text, allowPrefix)
					if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
						continue // e.g. //lint:allowance — not ours
					}
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						a.report(c.Pos(), "allow",
							`malformed directive %q: want "//lint:allow <rule> <reason>"`, c.Text)
						continue
					}
					file := pos.Filename
					if rel, ok := relPath(a.cfg.Dir, file); ok {
						file = rel
					}
					directives = append(directives, &allowDirective{
						file: file,
						line: pos.Line,
						rule: fields[0],
					})
				}
			}
		}
	}
	if len(directives) == 0 {
		return
	}
	kept := a.findings[:0]
	for _, f := range a.findings {
		if d := matchDirective(directives, f); d != nil {
			d.used = true
			continue
		}
		kept = append(kept, f)
	}
	a.findings = kept
	for _, d := range directives {
		if !d.used {
			a.findings = append(a.findings, Finding{
				File: d.file, Line: d.line, Col: 1, Rule: "allow",
				Message: "//lint:allow " + d.rule + " suppresses nothing here; delete the stale directive",
			})
		}
	}
}

// matchDirective finds a directive covering the finding: same file, same
// rule, and on the finding's line or the line above it.
func matchDirective(ds []*allowDirective, f Finding) *allowDirective {
	for _, d := range ds {
		if d.file == f.File && d.rule == f.Rule && (d.line == f.Line || d.line == f.Line-1) {
			return d
		}
	}
	return nil
}
