package allocgate

import (
	"sync"
	"testing"

	"repro/internal/analysis/allocbudget"
	"repro/internal/server"
	"repro/internal/sketch"
	_ "repro/internal/sketch/kinds"
	"repro/internal/wal"
)

// Gate-sized configuration: small sketches, a modest distinct-label
// set, warmed before measurement so steady-state growth (amortized
// sites) has already happened.
const (
	gateEps    = 0.5
	gateSeed   = 42
	gateLabels = 64
	gateRuns   = 50
)

var (
	loadOnce sync.Once
	loadSet  *allocbudget.Set
	loadErr  error
)

// budgets harvests the allocflow summaries once per test binary: it
// re-runs the analyzer over the module, so the licensed ceilings are
// always those of the tree under test, never a stale artifact.
func budgets(t *testing.T) *allocbudget.Set {
	t.Helper()
	loadOnce.Do(func() {
		loadSet, loadErr = allocbudget.Load(".",
			"./internal/server", "./internal/wal", "./internal/sketch/...",
			"./internal/core", "./internal/exact", "./internal/window")
	})
	if loadErr != nil {
		t.Fatalf("harvesting allocflow summaries: %v", loadErr)
	}
	return loadSet
}

// mustBeBounded lists the paths whose static boundedness is
// ratcheted: these are bounded today, and a change that reintroduces
// an unlicensed allocation or dynamic call on one of them fails here
// (an unbounded path only logs otherwise, since the numeric gate has
// nothing to compare against).
var mustBeBounded = map[string]bool{
	"gt/process": true, "exact/process": true, "ams/process": true,
	"bjkst/process": true, "fm/process": true, "kmv/process": true,
	"hll/process": true, "window/process": true,
	"gt/merge": true, "exact/merge": true, "ams/merge": true,
	"bjkst/merge": true, "fm/merge": true, "kmv/merge": true, "hll/merge": true,
	"gt/decode": true, "exact/decode": true, "ams/decode": true,
	"bjkst/decode": true, "fm/decode": true, "kmv/decode": true,
	"hll/decode": true, "window/decode": true,
	"gt/absorb": true, "exact/absorb": true, "ams/absorb": true,
	"bjkst/absorb": true, "fm/absorb": true, "kmv/absorb": true,
	"hll/absorb": true,
	// window/merge and window/absorb stay unbounded by design:
	// window.mergeLevel rebuilds per-level samples on every merge.
	"wal/append": true,
}

// measuredCeiling ratchets paths below their licensed ceiling, to
// what they measure. A steady-state absorb of these kinds decodes into
// the absorb slot's warm sketch.Scratch and merges in place, and
// allocates nothing. (AllocsPerRun truncates the per-run average, so
// a stray runtime allocation across the runs does not count.)
var measuredCeiling = map[string]float64{
	"gt/absorb": 0, "fm/absorb": 0, "hll/absorb": 0, "kmv/absorb": 0,
}

// gate compares one observed AllocsPerRun figure against the path's
// licensed ceiling. Unbounded paths are logged (and ratchet-checked);
// bounded paths fail when the runtime out-allocates the license.
func gate(t *testing.T, set *allocbudget.Set, name string, p allocbudget.Path, perRun int, f func()) {
	t.Helper()
	res := set.Eval(p)
	if !res.Bounded {
		t.Logf("%s: statically unbounded (no numeric gate): %v", name, res.Blockers)
		if mustBeBounded[name] {
			t.Errorf("%s: must stay statically bounded, blockers: %v", name, res.Blockers)
		}
		return
	}
	budget := float64(res.Ceiling * perRun)
	observed := testing.AllocsPerRun(gateRuns, f)
	t.Logf("%s: observed %.1f allocs/run, licensed %d (ceiling %d × %d ops)",
		name, observed, res.Ceiling*perRun, res.Ceiling, perRun)
	if observed > budget {
		t.Errorf("%s: observed %.1f allocs/run exceeds the licensed ceiling %d — either the summaries under-count (fix allocflow) or the path grew an allocation (hoist or annotate it)",
			name, observed, res.Ceiling*perRun)
	}
	if c, ok := measuredCeiling[name]; ok && observed > c {
		t.Errorf("%s: observed %.1f allocs/run exceeds the measured ceiling %.0f — the path grew an allocation", name, observed, c)
	}
}

// newWarm builds a sketch of the kind and feeds it the gate label
// set, so capacity growth is behind it.
func newWarm(t *testing.T, info sketch.KindInfo) sketch.Sketch {
	t.Helper()
	s := info.New(gateEps, gateSeed)
	for l := uint64(0); l < gateLabels; l++ {
		s.Process(l)
	}
	return s
}

// TestHotPathAllocSummaries is the runtime cross-check of the
// allocflow analyzer: for every registered kind it drives the
// Process, Merge, envelope-decode, coordinator-absorb, and WAL-append
// paths under testing.AllocsPerRun and fails if observed allocations
// exceed the malloc ceiling the kind's summaries license.
func TestHotPathAllocSummaries(t *testing.T) {
	if testing.Short() {
		t.Skip("harvesting summaries re-analyzes the module; skipped in -short")
	}
	set := budgets(t)

	for _, kind := range allocbudget.Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			info, ok := sketch.LookupName(kind)
			if !ok {
				t.Fatalf("kind %q not registered", kind)
			}

			t.Run("process", func(t *testing.T) {
				p, _ := allocbudget.ProcessPath(kind)
				s := newWarm(t, info)
				gate(t, set, kind+"/process", p, gateLabels, func() {
					for l := uint64(0); l < gateLabels; l++ {
						s.Process(l)
					}
				})
			})

			t.Run("merge", func(t *testing.T) {
				p, _ := allocbudget.MergePath(kind)
				a, b := newWarm(t, info), newWarm(t, info)
				if err := a.Merge(b); err != nil { // warm: reach merge steady state
					t.Fatalf("warm merge: %v", err)
				}
				gate(t, set, kind+"/merge", p, 1, func() {
					if err := a.Merge(b); err != nil {
						t.Fatalf("merge: %v", err)
					}
				})
			})

			t.Run("decode", func(t *testing.T) {
				p, _ := allocbudget.DecodePath(kind)
				env, err := sketch.Envelope(newWarm(t, info))
				if err != nil {
					t.Fatalf("envelope: %v", err)
				}
				gate(t, set, kind+"/decode", p, 1, func() {
					if _, err := sketch.Open(env); err != nil {
						t.Fatalf("open: %v", err)
					}
				})
			})

			t.Run("absorb", func(t *testing.T) {
				p, _ := allocbudget.AbsorbPath(kind)
				env, err := sketch.Envelope(newWarm(t, info))
				if err != nil {
					t.Fatalf("envelope: %v", err)
				}
				srv := server.New(server.Config{})
				if err := srv.Absorb(env); err != nil { // warm: create the group
					t.Fatalf("warm absorb: %v", err)
				}
				gate(t, set, kind+"/absorb", p, 1, func() {
					if err := srv.Absorb(env); err != nil {
						t.Fatalf("absorb: %v", err)
					}
				})
			})
		})
	}

	t.Run("wal/append", func(t *testing.T) {
		info, _ := sketch.LookupName("gt")
		env, err := sketch.Envelope(newWarm(t, info))
		if err != nil {
			t.Fatalf("envelope: %v", err)
		}
		// A huge segment keeps rotation (cold-annotated) out of the
		// measured runs; SyncNever keeps fsync policy out of them too.
		l, err := wal.Open(t.TempDir(), wal.Options{SegmentBytes: 1 << 40})
		if err != nil {
			t.Fatalf("wal open: %v", err)
		}
		defer l.Close()
		if _, err := l.Replay(func(string, []byte) error { return nil }); err != nil {
			t.Fatalf("wal replay: %v", err)
		}
		if err := l.AppendNamed("s", env); err != nil { // warm
			t.Fatalf("warm append: %v", err)
		}
		gate(t, set, "wal/append", allocbudget.WALAppendPath(), 1, func() {
			if err := l.AppendNamed("s", env); err != nil {
				t.Fatalf("append: %v", err)
			}
		})
	})
}
