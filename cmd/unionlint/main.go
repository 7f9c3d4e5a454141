// Command unionlint is the repository's static-analysis suite: nine
// analyzers encoding the invariants the coordinated-sampling scheme
// depends on (seedcheck, lockorder, floatcmp, errcontract,
// allocflow, kindcheck, mergepure, ackcontract, failpointcheck —
// see `unionlint -help` or README "Static analysis").
//
// It runs in two modes:
//
//	go vet -vettool=$(go env GOPATH)/bin/unionlint ./...
//
// speaks the go command's vet-tool protocol (this is what ci.sh runs:
// it covers test compilations, caches per package, and round-trips
// analyzer facts through .vetx files), and
//
//	unionlint [flags] ./...
//
// loads packages itself in dependency order (so facts flow the same
// way) and prints findings grouped per analyzer. Standalone-only
// flags: -fix applies the mechanical suggested fixes (errcontract's
// %w rewrites); -json emits one JSON object per diagnostic for CI
// artifacts; -allocflow.update regenerates the allocation-budget
// baseline (lint/allocflow.baseline); -summarize regroups vet-mode
// output read from stdin.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/registry"
)

func main() {
	os.Exit(run(os.Args))
}

func run(argv []string) int {
	progname := filepath.Base(argv[0])
	args := argv[1:]
	analyzers := registry.Analyzers()

	// The two go-command handshakes come before normal flag parsing:
	// cmd/go invokes them with exactly one argument.
	if len(args) == 1 && args[0] == "-V=full" {
		driver.PrintVersion(os.Stdout, progname)
		return 0
	}
	if len(args) == 1 && args[0] == "-flags" {
		driver.PrintFlagDefs(os.Stdout, analyzers)
		return 0
	}

	fs := flag.NewFlagSet(progname, flag.ContinueOnError)
	fix := fs.Bool("fix", false, "apply suggested fixes to the source tree (standalone mode)")
	jsonOut := fs.Bool("json", false, "print findings as JSON Lines (one diagnostic per line) instead of the grouped summary")
	summarize := fs.Bool("summarize", false, "read vet-mode diagnostics from stdin and print a per-analyzer summary")
	update := fs.Bool("allocflow.update", false, "regenerate lint/allocflow.baseline from the current tree (alias for -allocflow.write=1)")
	verbose := fs.Bool("v", false, "also list analyzers that found nothing")
	var flagVals []*string
	var flagRefs []*analysis.Flag
	for _, a := range analyzers {
		for _, f := range a.Flags {
			v := fs.String(a.Name+"."+f.Name, f.Value, f.Usage)
			flagVals = append(flagVals, v)
			flagRefs = append(flagRefs, f)
		}
	}
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] [package patterns | path/to/vet.cfg]\n\nAnalyzers:\n", progname)
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, firstLine(a.Doc))
		}
		fmt.Fprintf(os.Stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for i, f := range flagRefs {
		f.Value = *flagVals[i]
	}

	if *summarize {
		if err := driver.Summarize(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
			return 1
		}
		return 0
	}

	rest := fs.Args()

	// Vet-tool mode: the go command passes a single *.cfg file.
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return driver.RunVetUnit(rest[0], analyzers)
	}

	// Standalone mode.
	patterns := rest
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if *update {
		// -allocflow.update is the documented way to regenerate the
		// baseline; it simply arms the analyzer's write flag.
		if w := lookupFlag(analyzers, "allocflow", "write"); w != nil {
			w.Value = "1"
		}
	}
	if err := prepareBaselineWrite(analyzers); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		return 1
	}
	pkgs, err := driver.LoadModulePackages(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		return 1
	}
	// One shared fact store; packages arrive in dependency order, so
	// by the time a package runs, every fact of its transitive imports
	// is present, and the per-package view hides everything else.
	store := driver.NewFactStore(analyzers)
	var findings []driver.Finding
	for _, pkg := range pkgs {
		visible := make(map[string]bool, len(pkg.Deps))
		for _, d := range pkg.Deps {
			visible[d] = true
		}
		fs, err := driver.RunAnalyzers(pkg, analyzers, store.View(pkg.Pkg, visible))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
			return 1
		}
		findings = append(findings, fs...)
	}
	if *fix {
		n, err := driver.ApplyFixes(findings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: applying fixes: %v\n", progname, err)
			return 1
		}
		fmt.Printf("%s: applied %d suggested fix(es)\n", progname, n)
		return 0
	}
	if *update {
		fmt.Printf("%s: regenerated allocflow baseline\n", progname)
	}
	if *jsonOut {
		if err := driver.PrintJSON(os.Stdout, findings); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
			return 1
		}
		if len(findings) > 0 {
			return 1
		}
		return 0
	}
	if len(findings) == 0 {
		if *verbose {
			for _, a := range analyzers {
				fmt.Printf("-- %s: ok\n", a.Name)
			}
		}
		fmt.Printf("%s: %d package(s) clean\n", progname, len(pkgs))
		return 0
	}
	driver.PrintGrouped(os.Stdout, findings)
	fmt.Printf("%s: %d finding(s)\n", progname, len(findings))
	return 1
}

// lookupFlag finds one analyzer flag by analyzer and flag name.
func lookupFlag(analyzers []*analysis.Analyzer, analyzer, name string) *analysis.Flag {
	for _, a := range analyzers {
		if a.Name == analyzer {
			return a.Lookup(name)
		}
	}
	return nil
}

// prepareBaselineWrite truncates the allocflow baseline before an
// -allocflow.update / -allocflow.write sweep (each package pass
// appends to it), filling in the default module path when the flag is
// unset.
func prepareBaselineWrite(analyzers []*analysis.Analyzer) error {
	var af *analysis.Analyzer
	for _, a := range analyzers {
		if a.Name == "allocflow" {
			af = a
		}
	}
	if af == nil {
		return nil
	}
	w, b := af.Lookup("write"), af.Lookup("baseline")
	if w == nil || b == nil || (w.Value != "1" && w.Value != "true") {
		return nil
	}
	if b.Value == "" {
		root, _, err := driver.FindModule(".")
		if err != nil {
			return err
		}
		b.Value = filepath.Join(root, "lint", "allocflow.baseline")
	}
	if err := os.MkdirAll(filepath.Dir(b.Value), 0o755); err != nil {
		return err
	}
	header := "# allocflow baseline: accepted transitive allocation budgets for hotpath roots.\n" +
		"# One \"root<TAB>owner<TAB>kind<TAB>count\" line per bucket (kind calls-unknown\n" +
		"# counts dynamic calls the analyzer cannot bound). Do not edit by hand; regenerate with:\n" +
		"#   go run ./cmd/unionlint -allocflow.update ./...\n"
	return os.WriteFile(b.Value, []byte(header), 0o644)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
