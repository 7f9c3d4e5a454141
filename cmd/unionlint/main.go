// Command unionlint is the repository's static-analysis suite: nine
// analyzers encoding the invariants the coordinated-sampling scheme
// depends on (seedcheck, lockorder, floatcmp, errcontract,
// allocflow, kindcheck, mergepure, ackcontract, failpointcheck —
// see `unionlint -help` or README "Static analysis").
//
//	unionlint [flags] [packages]
//
// loads the module's packages matching the patterns (default ./...)
// together with their test compilations, analyzes them in dependency
// order so cross-package facts flow from each package to its
// importers, and prints findings grouped per analyzer. -fix applies
// the mechanical suggested fixes (errcontract's %w rewrites); -json
// emits one JSON object per diagnostic on stdout, with the grouped
// summary on stderr when there are findings (what ci.sh gates on and
// diffs against lint/report.jsonl); -allocflow.update runs allocflow
// alone to regenerate the allocation-budget baseline
// (lint/allocflow.baseline), without the test compilations, whose
// _test.go files allocflow skips.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	analyzers := registry.Analyzers()

	fs := flag.NewFlagSet(progname, flag.ContinueOnError)
	fix := fs.Bool("fix", false, "apply suggested fixes to the source tree")
	jsonOut := fs.Bool("json", false, "print findings as JSON Lines (one diagnostic per line) instead of the grouped summary")
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
		fmt.Fprintf(os.Stderr, "usage: %s [flags] [package patterns]\n\nAnalyzers:\n", progname)
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, firstLine(a.Doc))
		}
		fmt.Fprintf(os.Stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv[1:]); err != nil {
		return 2
	}
	for i, f := range flagRefs {
		f.Value = *flagVals[i]
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if *update {
		// -allocflow.update is the documented way to regenerate the
		// baseline: it arms the analyzer's write flag and runs
		// allocflow alone, the only analyzer the baseline needs. As
		// allocflow skips _test.go files, that run leaves the test
		// compilations out.
		if w := lookupFlag(analyzers, "allocflow", "write"); w != nil {
			w.Value = "1"
		}
		analyzers = slices.DeleteFunc(analyzers, func(a *analysis.Analyzer) bool { return a.Name != "allocflow" })
	}
	if err := prepareBaselineWrite(analyzers); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		return 1
	}
	res, err := driver.Analyze(".", analyzers, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		return 1
	}
	findings := res.Findings
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
			// stdout stays machine-readable; people read stderr.
			driver.PrintGrouped(os.Stderr, findings)
			fmt.Fprintf(os.Stderr, "%s: %d finding(s)\n", progname, len(findings))
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
		fmt.Printf("%s: %d package(s) clean\n", progname, res.Packages)
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
