package driver_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/allocflow"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/registry"
)

// TestAnalyze runs the full suite over small temp modules through the
// same walk cmd/unionlint uses. The cross-package cases report only
// because a fact crosses a package boundary in the shared store; the
// test-file cases report only because the walk analyzes test
// compilations. Every want must appear exactly once: a package and its
// internal test variant share the non-test files, and the walk keeps
// each finding once.
func TestAnalyze(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		wants []string
	}{
		{
			name: "kindcheck tag collision across packages",
			files: map[string]string{
				"internal/sketch/sketch.go": sketchPackage,
				"internal/sketch/a/a.go":    kindPackage("a", "alpha"),
				"internal/sketch/b/b.go":    kindPackage("b", "beta"),
				"agg/agg.go": `// Package agg blank-imports every kind, like the real
// internal/sketch/kinds aggregator.
package agg

import (
	_ "tmod/internal/sketch/a"
	_ "tmod/internal/sketch/b"
)
`,
			},
			wants: []string{"sketch kind tag 1 registered by both tmod/internal/sketch/a and tmod/internal/sketch/b"},
		},
		{
			name: "allocflow charges a dependency's append to a hotpath root",
			files: map[string]string{
				"help/help.go": `// Package help allocates on behalf of its callers.
package help

// Grow appends one value.
func Grow(dst []uint64, v uint64) []uint64 {
	return append(dst, v)
}
`,
				"hot/hot.go": `// Package hot has a hotpath root that allocates only
// through its dependency.
package hot

import "tmod/help"

// Sketch is a miniature sampler.
type Sketch struct{ buf []uint64 }

// Process observes one item.
//
// hotpath: called once per stream item.
func (s *Sketch) Process(v uint64) {
	s.buf = help.Grow(s.buf, v)
}
`,
			},
			wants: []string{"1 append site(s) in tmod/help.Grow"},
		},
		{
			name: "lockorder blocking summary imported across packages",
			files: map[string]string{
				"x/x.go": `// Package x exports a blocking push, like the real client.
package x

import "time"

// SlowPush stalls like a network round trip.
func SlowPush() {
	time.Sleep(time.Millisecond)
}
`,
				"y/y.go": `// Package y holds an annotated mutex across the blocking call.
package y

import (
	"sync"

	"tmod/x"
)

type Shard struct {
	mu sync.Mutex // guards: n
	n  int
}

var shared Shard

// Flush blocks while locked; only x.SlowPush's LockSummary fact makes
// that visible here.
func Flush() {
	shared.mu.Lock()
	x.SlowPush()
	shared.mu.Unlock()
}
`,
			},
			wants: []string{"Flush calls x.SlowPush, which calls time.Sleep, while holding y.Shard.mu"},
		},
		{
			name: "findings in test files, and once in files a test variant shares",
			files: map[string]string{
				"internal/core/core.go": `package core

func equal(a, b float64) bool { return a == b }
`,
				"internal/core/core_test.go": `package core

import (
	"math/rand"
	"testing"
	"time"
)

func TestEqual(t *testing.T) {
	rand.Seed(time.Now().UnixNano())
	_ = equal(1, 2)
}
`,
				"internal/failpoint/failpoint.go": `// Package failpoint declares one site.
package failpoint

// SiteA is the only declared site.
const SiteA = "a/site"

// Inject fires the named site.
func Inject(name string) error { return nil }
`,
				"app/app.go": "package app\n",
				"app/app_test.go": `package app_test

import (
	"testing"

	"tmod/internal/failpoint"
)

func TestInject(t *testing.T) {
	_ = failpoint.Inject("no/such/site")
}
`,
			},
			wants: []string{
				"float equality (==) in estimator code",
				"rand.Seed reseeds the process-global generator",
				`failpoint name "no/such/site" does not resolve to a declared site`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.files["go.mod"] = "module tmod\n\ngo 1.22\n"
			writeTree(t, dir, tc.files)
			res, err := driver.Analyze(dir, registry.Analyzers(), "./...")
			if err != nil {
				t.Fatal(err)
			}
			var report strings.Builder
			driver.PrintGrouped(&report, res.Findings)
			for _, want := range tc.wants {
				n := 0
				for _, f := range res.Findings {
					if strings.Contains(f.Diag.Message, want) {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%q reported %d times, want once; findings:\n%s", want, n, report.String())
				}
			}
		})
	}
}

// TestAnalyzeSkipsTestCompilations checks that a run whose analyzers
// all skip _test.go files (allocflow alone, as in allocbudget.Load and
// unionlint -allocflow.update) loads no test compilation and reports
// what the full walk reports for it.
func TestAnalyzeSkipsTestCompilations(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": "module tmod\n\ngo 1.22\n",
		"hot/hot.go": `// Package hot has an allocating hotpath root.
package hot

// Sketch is a miniature sampler.
type Sketch struct{ buf []uint64 }

// Process observes one item.
//
// hotpath: called once per stream item.
func (s *Sketch) Process(v uint64) {
	s.buf = append(s.buf, v)
}
`,
		"hot/hot_test.go": `package hot

import "testing"

func TestProcess(t *testing.T) { new(Sketch).Process(1) }
`,
		"hot/ext_test.go": `package hot_test

import (
	"testing"

	"tmod/hot"
)

func TestExternal(t *testing.T) { new(hot.Sketch).Process(1) }
`,
	})
	only, err := driver.Analyze(dir, []*analysis.Analyzer{allocflow.Analyzer}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	full, err := driver.Analyze(dir, registry.Analyzers(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	if only.Packages != 1 || full.Packages != 3 {
		t.Errorf("allocflow alone analyzed %d packages, the full suite %d; want 1 (no test compilations) and 3", only.Packages, full.Packages)
	}
	var fromFull []driver.Finding
	for _, f := range full.Findings {
		if f.Analyzer == allocflow.Analyzer.Name {
			fromFull = append(fromFull, f)
		}
	}
	if len(only.Findings) != 1 || len(fromFull) != 1 || only.Findings[0].Pos != fromFull[0].Pos || only.Findings[0].Diag.Message != fromFull[0].Diag.Message {
		t.Errorf("allocflow alone reported %v, the full suite %v; want the same one finding", only.Findings, fromFull)
	}
}

const sketchPackage = `package sketch

import "errors"

type Kind uint8

var (
	ErrMismatch    = errors.New("sketch: mismatch")
	ErrCorrupt     = errors.New("sketch: corrupt")
	ErrUnknownKind = errors.New("sketch: unknown kind")
)

type Sketch interface{ Kind() Kind }

type KindInfo struct {
	Kind    Kind
	Name    string
	Version uint8
	New     func() Sketch
	Decode  func([]byte) (Sketch, error)
}

func Register(info KindInfo) {}
`

// kindPackage renders a kind package that is clean under kindcheck
// except for its tag choice: every generated package uses tag 1.
func kindPackage(pkg, name string) string {
	return `package ` + pkg + `

import (
	"fmt"

	"tmod/internal/sketch"
)

const (
	kindTag     sketch.Kind = 1
	kindName                = "` + name + `"
	kindVersion             = 1
)

func init() {
	sketch.Register(sketch.KindInfo{Kind: kindTag, Name: kindName, Version: kindVersion})
}

// wrap keeps the typed sentinels in use, as kindcheck requires.
func wrap() error {
	return fmt.Errorf("%w: %w", sketch.ErrMismatch, sketch.ErrCorrupt)
}

var _ = wrap
`
}

// writeTree writes files (path → contents) under dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for path, contents := range files {
		full := filepath.Join(dir, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(contents), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
