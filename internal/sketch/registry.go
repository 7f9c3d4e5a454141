package sketch

import (
	"fmt"
	"sort"
	"sync"
)

// KindInfo describes one registered sketch algorithm: its stable wire
// tag, human-readable name, payload format version, and the two
// factory functions every layer builds on.
type KindInfo struct {
	// Kind is the stable wire tag (see the Kind constants).
	Kind Kind
	// Name is the short stable identifier operators use to select a
	// backend (e.g. "gt", "kmv"). Lowercase, no spaces.
	Name string
	// Version is the payload format version stamped into envelopes; a
	// decoder refuses other versions. Bump it when the MarshalBinary
	// layout changes incompatibly.
	Version uint8
	// New returns an empty sketch targeting relative error eps
	// (0 < eps ≤ 1) with the given coordination seed. Kinds whose
	// accuracy is not eps-parameterized (exact) may ignore eps; kinds
	// without a seed ignore seed. Panics on invalid eps, matching the
	// underlying package constructors.
	New func(eps float64, seed uint64) Sketch
	// Decode parses a canonical payload (the bytes MarshalBinary
	// produced, without the envelope header). dst is nil or a sketch
	// an earlier Decode of this kind returned; a kind may decode into
	// dst's buffers and return dst, so a caller that decodes into the
	// same dst over and over (a Scratch) stops allocating. With a nil
	// dst the result is a fresh sketch. A caller that passes dst gives
	// up the state dst held, whether or not Decode succeeds; dst stays
	// fit to pass to a later Decode.
	Decode func(dst Sketch, payload []byte) (Sketch, error)
}

// registry holds the process-wide kind table. Registration happens in
// package init functions; lookups happen on every envelope decode.
type registry struct {
	mu     sync.RWMutex // guards: byKind, byName
	byKind map[Kind]KindInfo
	byName map[string]KindInfo
}

var reg = &registry{
	byKind: make(map[Kind]KindInfo),
	byName: make(map[string]KindInfo),
}

// Register adds a kind to the process-wide registry. It is called
// from the implementing package's init function and panics on an
// incomplete KindInfo or a duplicate tag or name — both are build
// mistakes, not runtime conditions.
func Register(info KindInfo) {
	if info.Kind == 0 || info.Name == "" || info.Version == 0 || info.New == nil || info.Decode == nil {
		panic(fmt.Sprintf("sketch: Register(%q): incomplete KindInfo", info.Name))
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if prev, dup := reg.byKind[info.Kind]; dup {
		panic(fmt.Sprintf("sketch: kind %d registered twice (%q and %q)", uint8(info.Kind), prev.Name, info.Name))
	}
	if _, dup := reg.byName[info.Name]; dup {
		panic(fmt.Sprintf("sketch: name %q registered twice", info.Name))
	}
	reg.byKind[info.Kind] = info
	reg.byName[info.Name] = info
}

// Lookup returns the registration for a kind tag.
func Lookup(k Kind) (KindInfo, bool) {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	info, ok := reg.byKind[k]
	return info, ok
}

// LookupName returns the registration for a backend name.
func LookupName(name string) (KindInfo, bool) {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	info, ok := reg.byName[name]
	return info, ok
}

// Kinds returns every registration ordered by kind tag — the stable
// iteration order the conformance suite, fuzzers, and CLI help use.
func Kinds() []KindInfo {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	out := make([]KindInfo, 0, len(reg.byKind))
	for _, info := range reg.byKind {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// Names returns every registered backend name in kind-tag order.
func Names() []string {
	infos := Kinds()
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = info.Name
	}
	return names
}
