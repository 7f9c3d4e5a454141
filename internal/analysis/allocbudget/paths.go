package allocbudget

import "regexp"

// The seams every kind path shares. Hash dispatch lands on the
// tabulation/pairwise families, which allocflow proves allocation-free
// (their summaries are empty), so the dispatch licenses zero extras;
// likewise the small sketch-interface accessors (Kind, Digest, Seed,
// Estimate). Merge and ProcessWeighted dispatches are licensed at
// zero because every Path that crosses one also lists the concrete
// callee in Roots. The Clone dispatch is licensed at zero because it
// runs once per merge group (a new group takes a clone of the decoded
// sketch), not once per absorb. The registry Decode closure builds a
// fresh sketch — maps, slices, the sketch struct itself — so it
// carries a fixed allowance sized for the small configurations the
// runtime gates use.
var (
	seamHash      = Seam{Match: regexp.MustCompile(`\(repro/internal/hashing\.Family\)\.Hash`), Extra: 0}
	seamAccessors = Seam{Match: regexp.MustCompile(`\(repro/internal/sketch\.Sketch\)\.(Kind|Digest|Seed|Estimate)$`), Extra: 0}
	seamMarshal   = Seam{Match: regexp.MustCompile(`\(repro/internal/sketch\.Sketch\)\.MarshalBinary`), Extra: 0}
	seamMerge     = Seam{Match: regexp.MustCompile(`\(repro/internal/sketch\.Sketch\)\.Merge`), Extra: 0}
	seamClone     = Seam{Match: regexp.MustCompile(`\(repro/internal/sketch\.Sketch\)\.Clone`), Extra: 0}
	seamWeighted  = Seam{Match: regexp.MustCompile(`\(repro/internal/sketch\.Weighted\)\.ProcessWeighted`), Extra: 0}
	seamErrError  = Seam{Match: regexp.MustCompile(`\(error\)\.Error`), Extra: 0}

	decodeCall = regexp.MustCompile(`dynamic call info\.Decode`)
)

// DecodeExtra is the malloc allowance for one registry Decode of a
// gate-sized sketch (capacity ≲ 64). Decoding legitimately builds the
// whole sketch, so the allowance is the dominant term of the decode
// and absorb ceilings.
const DecodeExtra = 160

// decodeExtra overrides DecodeExtra for kinds whose fresh sketch is
// structurally bigger: the window sketch decodes one bounded sample
// (map + entry slab + free list) per level, O(MaxLevel) of everything.
var decodeExtra = map[string]int{"window": 768}

// scratchDecodeExtra is the malloc allowance for one registry Decode
// into a sketch.Scratch, for the kinds whose Decode reuses the
// scratch's sketch: once its buffers have grown to the configuration
// (the gates warm them), a decode allocates nothing.
var scratchDecodeExtra = map[string]int{"gt": 0, "fm": 0, "hll": 0, "kmv": 0}

// decodeSeam licenses kind's registry Decode closure invocation: a
// fresh small sketch (struct, hash family state, one map or slice per
// component, plus map buckets for gate-sized payloads), or, with
// scratch set, a decode into a warm sketch.Scratch.
func decodeSeam(kind string, scratch bool) Seam {
	extra := DecodeExtra
	if e, ok := decodeExtra[kind]; ok {
		extra = e
	}
	if e, ok := scratchDecodeExtra[kind]; ok && scratch {
		extra = e
	}
	return Seam{Match: decodeCall, Extra: extra}
}

// kindType maps a registry kind name to its concrete pkg-qualified
// type, the receiver of the Process/Merge roots below.
var kindType = map[string]string{
	"gt":     "repro/internal/core.Estimator",
	"exact":  "repro/internal/exact.Distinct",
	"ams":    "repro/internal/sketch/ams.Sketch",
	"bjkst":  "repro/internal/sketch/bjkst.Sketch",
	"fm":     "repro/internal/sketch/fm.Sketch",
	"kmv":    "repro/internal/sketch/kmv.Sketch",
	"hll":    "repro/internal/sketch/ll.Sketch",
	"window": "repro/internal/window.Union",
}

// Kinds returns the kind names with path tables, sorted as registered.
func Kinds() []string {
	return []string{"gt", "exact", "ams", "bjkst", "fm", "kmv", "hll", "window"}
}

// ProcessPath is the per-item ingest path for kind: the concrete
// Process method (which subsumes ProcessWeighted where one exists),
// with hashing dispatch as its only seam.
func ProcessPath(kind string) (Path, bool) {
	typ, ok := kindType[kind]
	if !ok {
		return Path{}, false
	}
	return Path{
		Roots: []string{typ + ".Process", typ + ".ProcessWeighted"},
		Seams: []Seam{seamHash},
	}, true
}

// MergePath is the pairwise union path for kind: the concrete Merge
// method. Merge dispatches only on accessors and hashing.
func MergePath(kind string) (Path, bool) {
	typ, ok := kindType[kind]
	if !ok {
		return Path{}, false
	}
	return Path{
		Roots: []string{typ + ".Merge"},
		Seams: []Seam{seamHash, seamAccessors, seamErrError},
	}, true
}

// DecodePath is the envelope-decode path: sketch.Open routed through
// the registry's Decode closure, which the seam allowance bounds.
func DecodePath(kind string) (Path, bool) {
	if _, ok := kindType[kind]; !ok {
		return Path{}, false
	}
	return Path{
		Roots: []string{"repro/internal/sketch.Open"},
		Seams: []Seam{decodeSeam(kind, false), seamAccessors},
	}, true
}

// AbsorbPath is the coordinator's whole absorb path for kind: open
// the envelope into the absorb slot's scratch, validate, fold into
// the group — plus the concrete Merge the group fold dispatches into.
// The WAL branch is part of absorbSketch's summary, so a WAL-armed
// absorb is covered too.
func AbsorbPath(kind string) (Path, bool) {
	typ, ok := kindType[kind]
	if !ok {
		return Path{}, false
	}
	return Path{
		Roots: []string{"repro/internal/server.Server.absorbSketch", typ + ".Merge"},
		Seams: []Seam{decodeSeam(kind, true), seamAccessors, seamMarshal, seamMerge, seamClone, seamWeighted, seamHash, seamErrError},
	}, true
}

// WALAppendPath is the durable-log append path: frame encoding plus
// the segment write. Statically bounded with no seams at all.
func WALAppendPath() Path {
	return Path{Roots: []string{"repro/internal/wal.Log.AppendNamed"}}
}
