package driver

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"slices"
	"sort"

	"repro/internal/analysis"
)

// Finding is one diagnostic located in file space.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Diag     analysis.Diagnostic
	Fset     *token.FileSet
}

// Result is one Analyze run.
type Result struct {
	// Packages counts the packages analyzed, test compilations
	// included.
	Packages int
	// Findings holds every diagnostic once, sorted.
	Findings []Finding
	// Facts holds the facts of the module's non-test packages.
	Facts *FactStore
}

// Analyze runs analyzers over every package loadModulePackages yields
// for dir and patterns, in its order, sharing one in-memory fact
// store: each package sees exactly the facts of its transitive
// imports. A package's test compilations share a clone of the store
// (the external test package sees what the internal variant
// exported), so facts about _test.go files never reach another
// package. A package and its internal test variant share the non-test
// files; a finding there is kept once. When every analyzer skips test
// files, the test compilations are not loaded at all.
func Analyze(dir string, analyzers []*analysis.Analyzer, patterns ...string) (*Result, error) {
	tests := slices.ContainsFunc(analyzers, func(a *analysis.Analyzer) bool { return !a.SkipsTestFiles })
	pkgs, err := loadModulePackages(dir, tests, patterns...)
	if err != nil {
		return nil, err
	}
	res := &Result{Packages: len(pkgs), Facts: NewFactStore()}
	type findingKey struct {
		analyzer string
		pos      token.Position
		msg      string
	}
	seen := map[findingKey]bool{}
	store, forTest := res.Facts, ""
	for _, pkg := range pkgs {
		if pkg.ForTest != forTest {
			store, forTest = res.Facts.clone(), pkg.ForTest
		}
		visible := make(map[string]bool, len(pkg.Deps))
		for _, d := range pkg.Deps {
			visible[d] = true
		}
		fs, err := RunAnalyzers(pkg, analyzers, store.View(pkg.Pkg, visible))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pkg.Pkg.Path(), err)
		}
		for _, f := range fs {
			k := findingKey{f.Analyzer, f.Pos, f.Diag.Message}
			if !seen[k] {
				seen[k] = true
				res.Findings = append(res.Findings, f)
			}
		}
	}
	sortFindings(res.Findings)
	return res, nil
}

// RunAnalyzers runs every analyzer over pkg and returns the findings.
// facts is the pass's fact store view (FactStore.View); nil disables
// facts, which only fact-free analyzers tolerate meaningfully.
func RunAnalyzers(pkg *Package, analyzers []*analysis.Analyzer, facts analysis.FactContext) ([]Finding, error) {
	var out []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			Facts:     facts,
		}
		pass.Report = func(d analysis.Diagnostic) {
			out = append(out, Finding{
				Analyzer: a.Name,
				Pos:      pkg.Fset.Position(d.Pos),
				Diag:     d,
				Fset:     pkg.Fset,
			})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	sortFindings(out)
	return out, nil
}

func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Column < b.Pos.Column
	})
}

// PrintGrouped writes a per-analyzer summary: a header with the count
// for each analyzer that fired, then its findings as file:line lines.
func PrintGrouped(w io.Writer, fs []Finding) {
	byName := map[string][]Finding{}
	var names []string
	for _, f := range fs {
		if _, ok := byName[f.Analyzer]; !ok {
			names = append(names, f.Analyzer)
		}
		byName[f.Analyzer] = append(byName[f.Analyzer], f)
	}
	sort.Strings(names)
	for _, name := range names {
		group := byName[name]
		fmt.Fprintf(w, "-- %s: %d finding(s)\n", name, len(group))
		for _, f := range group {
			fmt.Fprintf(w, "   %s: %s\n", f.Pos, f.Diag.Message)
			for _, fix := range f.Diag.SuggestedFixes {
				fmt.Fprintf(w, "      fix available: %s (run unionlint -fix)\n", fix.Message)
			}
		}
	}
}

// jsonFinding is the -json wire shape: one object per diagnostic.
type jsonFinding struct {
	Analyzer string   `json:"analyzer"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Column   int      `json:"column"`
	Message  string   `json:"message"`
	Fixes    []string `json:"suggested_fixes,omitempty"`
}

// PrintJSON writes findings as JSON Lines — one object per diagnostic
// with analyzer, position, message, and any suggested-fix summaries —
// so CI can archive a machine-readable findings artifact.
func PrintJSON(w io.Writer, fs []Finding) error {
	enc := json.NewEncoder(w)
	for _, f := range fs {
		jf := jsonFinding{
			Analyzer: f.Analyzer,
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Message:  f.Diag.Message,
		}
		for _, fix := range f.Diag.SuggestedFixes {
			jf.Fixes = append(jf.Fixes, fix.Message)
		}
		if err := enc.Encode(jf); err != nil {
			return err
		}
	}
	return nil
}

// edit is one byte-offset splice within a single file.
type edit struct {
	start, end int
	text       []byte
}

// collectEdits gathers every suggested-fix text edit from fs, grouped
// by filename and expressed as byte offsets.
func collectEdits(fs []Finding) map[string][]edit {
	perFile := map[string][]edit{}
	for _, f := range fs {
		for _, fix := range f.Diag.SuggestedFixes {
			for _, te := range fix.TextEdits {
				start := f.Fset.Position(te.Pos)
				end := f.Fset.Position(te.End)
				if start.Filename == "" || start.Filename != end.Filename {
					continue
				}
				perFile[start.Filename] = append(perFile[start.Filename],
					edit{start.Offset, end.Offset, te.NewText})
			}
		}
	}
	return perFile
}

// applyEdits splices edits into src, latest offsets first so earlier
// edits do not shift later ones; overlapping or out-of-range edits are
// skipped. It returns the new contents and the count applied.
func applyEdits(src []byte, edits []edit) ([]byte, int) {
	sort.Slice(edits, func(i, j int) bool { return edits[i].start > edits[j].start })
	applied := 0
	prev := len(src) + 1
	for _, e := range edits {
		if e.end > prev || e.start > e.end || e.end > len(src) {
			continue // overlapping or out-of-range edit: skip
		}
		src = append(src[:e.start], append(append([]byte(nil), e.text...), src[e.end:]...)...)
		prev = e.start
		applied++
	}
	return src, applied
}

// FixedSources computes the result of applying every suggested fix in
// fs without touching disk: filename → new contents, only for files
// with at least one applied edit. Tests use it to check fix output
// (and re-run analysis over it) against golden files.
func FixedSources(fs []Finding) (map[string][]byte, int, error) {
	return FixedSourcesFrom(fs, nil)
}

// FixedSourcesFrom is FixedSources reading input from overlay first
// and disk second, so a test can apply fixes to already-fixed sources
// (the idempotency check) without writing them anywhere.
func FixedSourcesFrom(fs []Finding, overlay map[string][]byte) (map[string][]byte, int, error) {
	out := map[string][]byte{}
	applied := 0
	for name, edits := range collectEdits(fs) {
		src, ok := overlay[name]
		if !ok {
			var err error
			src, err = os.ReadFile(name)
			if err != nil {
				return nil, applied, err
			}
		}
		fixed, n := applyEdits(src, edits)
		if n > 0 {
			out[name] = fixed
			applied += n
		}
	}
	return out, applied, nil
}

// ApplyFixes applies every suggested fix carried by fs to the files on
// disk. It returns the number of edits applied.
func ApplyFixes(fs []Finding) (int, error) {
	fixed, applied, err := FixedSources(fs)
	if err != nil {
		return applied, err
	}
	for name, src := range fixed {
		if err := os.WriteFile(name, src, 0o644); err != nil {
			return applied, err
		}
	}
	return applied, nil
}
