// Package analysis is a deliberately small, dependency-free skeleton
// of golang.org/x/tools/go/analysis: an Analyzer is a named check with
// a Run function over one type-checked package (a Pass), reporting
// Diagnostics that may carry mechanical SuggestedFixes.
//
// The repository vendors no third-party modules, so this package
// reimplements just the slice of the x/tools surface the unionlint
// analyzers need, keeping their code shaped so a future migration to
// the real framework is a find-and-replace. The driver lives in
// internal/analysis/driver (one in-memory walk over a module and its
// test compilations), the golden-test loader in
// internal/analysis/analysistest.
//
// # Suppression
//
// Every analyzer honors one escape hatch: a comment of the form
//
//	// unionlint:allow <name>[,<name>...] [reason]
//
// on the offending line, or on the line directly above it, suppresses
// diagnostics from the named analyzers. Reasons are free text and
// strongly encouraged — the annotation is a reviewed exception, not an
// off switch. lockorder makes the reason mandatory for its own name.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags
	// (-<name>.<flag>), and unionlint:allow annotations.
	Name string
	// Doc is a one-paragraph description; the first line is the
	// summary shown by `unionlint -help`.
	Doc string
	// Flags holds analyzer-specific flags, registered by drivers under
	// the -<name>. prefix. Nil means no flags.
	Flags []*Flag
	// FactTypes lists one zero value per concrete Fact type the
	// analyzer exports or imports, as x/tools requires. The in-memory
	// driver does not read it; it documents the analyzer's facts and
	// keeps the migration mechanical. Nil means no facts.
	FactTypes []Fact
	// SkipsTestFiles reports that the analyzer reads nothing in
	// _test.go files: it reports no finding and exports no fact from
	// them. A run whose analyzers all skip test files leaves the test
	// compilations out.
	SkipsTestFiles bool
	// Run performs the check on one package.
	Run func(*Pass) error
}

// A Flag is one analyzer-specific string flag. (All unionlint analyzer
// flags are strings; a richer set is not needed.)
type Flag struct {
	Name  string // without the analyzer prefix
	Usage string
	Value string // default; drivers overwrite before Run
}

// Lookup returns the analyzer's flag with the given name, or nil.
func (a *Analyzer) Lookup(name string) *Flag {
	for _, f := range a.Flags {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers a diagnostic; drivers set it. Analyzers should
	// call Pass.Reportf / Pass.Report, which apply unionlint:allow
	// suppression before forwarding here.
	Report func(Diagnostic)

	// Facts is the driver's fact store view for this pass: exports
	// attach to this package, imports see the transitive imports. Nil
	// when the driver does not support facts; the Pass fact methods
	// (facts.go) degrade gracefully then.
	Facts FactContext

	allow map[allowKey]bool // lazily built unionlint:allow index
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	End     token.Pos // optional (NoPos)
	Message string
	// SuggestedFixes carries mechanical rewrites a driver may apply
	// (unionlint -fix).
	SuggestedFixes []SuggestedFix
}

// A SuggestedFix is one self-contained rewrite.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// A TextEdit replaces the source in [Pos, End) with NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// Reportf reports a diagnostic at pos, subject to unionlint:allow
// suppression.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportDiag(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportDiag reports d unless an unionlint:allow comment suppresses it.
func (p *Pass) ReportDiag(d Diagnostic) {
	if p.Allowed(d.Pos) {
		return
	}
	p.Report(d)
}

// PkgPath returns the package's import path with any test-variant
// suffix ("pkg [pkg.test]") stripped, so scope regexps and baseline
// keys treat a package and its internal-test compilation alike.
func (p *Pass) PkgPath() string {
	path := p.Pkg.Path()
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return path
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.File(pos).Name(), "_test.go")
}

// Inspect walks every file of the package in depth-first order,
// calling fn as ast.Inspect does.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

type allowKey struct {
	file string
	line int
	name string
}

// allowPrefix introduces a suppression comment.
const allowPrefix = "unionlint:allow"

// Allowed reports whether an `unionlint:allow <name>` comment for this
// pass's analyzer covers pos (same line, or the line above).
func (p *Pass) Allowed(pos token.Pos) bool {
	if !pos.IsValid() {
		return false
	}
	if p.allow == nil {
		p.allow = map[allowKey]bool{}
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, _, ok := ParseAllow(c.Text)
					if !ok {
						continue
					}
					cp := p.Fset.Position(c.Pos())
					for _, n := range names {
						// The annotation covers its own line and the
						// following one, so it can trail the offending
						// code or sit on its own line above it.
						p.allow[allowKey{cp.Filename, cp.Line, n}] = true
						p.allow[allowKey{cp.Filename, cp.Line + 1, n}] = true
					}
				}
			}
		}
	}
	pp := p.Fset.Position(pos)
	return p.allow[allowKey{pp.Filename, pp.Line, p.Analyzer.Name}] ||
		p.allow[allowKey{pp.Filename, pp.Line, "all"}]
}

// ParseAllow reports whether one comment's text is an
// unionlint:allow annotation, returning the analyzer names it lists
// and its free-text reason ("" when the annotation gives none).
func ParseAllow(text string) (names []string, reason string, ok bool) {
	text = strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(text, "//"), "/*"))
	text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
	if !strings.HasPrefix(text, allowPrefix) {
		return nil, "", false
	}
	rest := strings.TrimSpace(text[len(allowPrefix):])
	// Names are the first whitespace-delimited field; anything after
	// is a free-text reason.
	field := rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		field, reason = rest[:i], strings.TrimSpace(rest[i:])
	}
	for _, n := range strings.Split(field, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, reason, len(names) > 0
}
