// Package allocbudget evaluates allocflow's AllocSummary facts for
// whole runtime paths. The analyzer's taint lattice is deliberately
// conservative: any call it cannot resolve statically (interface
// dispatch, registry closures, func values) is a calls-unknown entry
// that makes the summary unbounded. At a runtime seam, though, the
// caller usually knows exactly which concrete callee the dispatch
// lands on — the absorb path merges through (sketch.Sketch).Merge,
// but a gt-kind benchmark knows the callee is Estimator.Merge. This
// package closes that gap: a Path names the summaries to sum (the
// roots) plus the Seams that license its dynamic calls, each seam
// resolved either to zero extra mallocs (the dispatch itself) or to
// a fixed allowance (a registry Decode closure that builds a fresh
// sketch). Eval then yields a malloc ceiling the runtime cross-check
// (internal/allocgate, gtbench's allocs_budget_ok) can compare
// against testing.AllocsPerRun.
//
// The ceiling is an upper bound for steady-state, benchmark-sized
// configurations: SiteWeight already over-counts per site, and seam
// allowances are sized for the small sketches the gates construct.
package allocbudget

import (
	"fmt"
	"regexp"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/allocflow"
	"repro/internal/analysis/driver"
)

// Set holds harvested per-function allocation summaries keyed by
// pkg-qualified name, e.g. "repro/internal/core.Sampler.Process".
type Set struct {
	summaries map[string]*allocflow.AllocSummary
}

// Load runs the allocflow analyzer over the module containing dir
// (restricted to patterns) and harvests every exported AllocSummary.
// Findings are discarded: Load wants the facts, not the report.
func Load(dir string, patterns ...string) (*Set, error) {
	res, err := driver.Analyze(dir, []*analysis.Analyzer{allocflow.Analyzer}, patterns...)
	if err != nil {
		return nil, fmt.Errorf("allocbudget: %w", err)
	}
	if res.Packages == 0 {
		return nil, fmt.Errorf("allocbudget: no packages match %v", patterns)
	}
	set := &Set{summaries: map[string]*allocflow.AllocSummary{}}
	for _, of := range res.Facts.ObjectFacts() {
		if sum, ok := of.Fact.(*allocflow.AllocSummary); ok {
			set.summaries[of.Path+"."+of.Object] = sum
		}
	}
	return set, nil
}

// Summary returns the harvested summary for a pkg-qualified function
// name. A missing summary means allocflow proved the function
// allocation-free (the lattice bottom).
func (s *Set) Summary(name string) (*allocflow.AllocSummary, bool) {
	sum, ok := s.summaries[name]
	return sum, ok
}

// A Seam licenses one class of dynamic calls in a path: Match is
// applied to each calls-unknown description, and every matched call
// contributes Extra mallocs to the ceiling instead of making the path
// unbounded. Extra 0 says "the dispatch lands on a callee already
// accounted for by the path's roots".
type Seam struct {
	Match *regexp.Regexp
	Extra int
}

// A Path is one runtime-checked hot path: the summaries to sum and
// the seams that bound its dynamic calls.
type Path struct {
	Roots []string
	Seams []Seam
}

// Result is the evaluation of one Path against a Set.
type Result struct {
	// Ceiling is the licensed malloc upper bound per operation.
	Ceiling int
	// Bounded reports whether every site and dynamic call in the path
	// is statically bounded or seam-licensed.
	Bounded bool
	// Blockers lists what keeps the path unbounded, deduplicated.
	Blockers []string
}

// Eval sums the path's root summaries: bounded sites contribute
// Count·SiteWeight, seam-matched dynamic calls contribute Count·Extra,
// and everything else (looped non-amortized sites, unmatched dynamic
// calls) makes the result unbounded with a blocker naming it.
func (s *Set) Eval(p Path) Result {
	r := Result{Bounded: true}
	seen := map[string]bool{}
	blocked := func(desc string) {
		r.Bounded = false
		if !seen[desc] {
			seen[desc] = true
			r.Blockers = append(r.Blockers, desc)
		}
	}
	for _, root := range p.Roots {
		sum, ok := s.summaries[root]
		if !ok {
			continue // alloc-free
		}
		for _, site := range sum.Sites {
			if site.Looped && !site.Amortized {
				blocked(fmt.Sprintf("%s: looped %s site", site.Owner, site.Kind))
			}
			r.Ceiling += site.Count * allocflow.SiteWeight(site.Kind)
		}
		for _, dyn := range sum.Unknown {
			if seam := matchSeam(p.Seams, dyn.Desc); seam != nil {
				r.Ceiling += dyn.Count * seam.Extra
				continue
			}
			blocked(fmt.Sprintf("%s: %s", dyn.Owner, dyn.Desc))
		}
	}
	sort.Strings(r.Blockers)
	return r
}

func matchSeam(seams []Seam, desc string) *Seam {
	for i := range seams {
		if seams[i].Match.MatchString(desc) {
			return &seams[i]
		}
	}
	return nil
}
