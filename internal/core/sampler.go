package core

import (
	"fmt"

	"repro/internal/hashing"
)

// RaisePolicy is the overflow-policy tag a Sampler carries in its
// configuration, its wire encoding and its config digest. Both values
// name the same behaviour: on overflow the level jumps straight to the
// smallest level at or above the current one whose surviving set fits
// in Capacity (the state the paper's one-step-at-a-time raise also
// reaches). The tag survives so that every existing envelope and
// digest stays byte-identical; it selects no code.
type RaisePolicy uint8

const (
	// RaiseIncrement names the paper's description of the raise: one
	// level step at a time until the sample fits.
	RaiseIncrement RaisePolicy = iota
	// RaiseJump names the histogram jump to the smallest fitting
	// level, which is how every raise is computed.
	RaiseJump
)

// String implements fmt.Stringer.
func (p RaisePolicy) String() string {
	switch p {
	case RaiseIncrement:
		return "increment"
	case RaiseJump:
		return "jump"
	default:
		return fmt.Sprintf("RaisePolicy(%d)", uint8(p))
	}
}

// Config parameterizes a Sampler. Two samplers can be merged iff their
// Seed, Capacity and Family match exactly; distributed parties must
// therefore agree on a Config before observing their streams — the
// only coordination the scheme requires.
type Config struct {
	// Capacity is the maximum number of distinct labels retained,
	// c = Θ(1/ε²). Use CapacityForEpsilon to derive it from a target
	// relative error. Must be ≥ 1.
	Capacity int
	// Seed determines the shared level hash function.
	Seed uint64
	// Family selects the hash family (default FamilyPairwise).
	Family FamilyKind
	// Raise is the overflow-policy tag (default RaiseIncrement); see
	// RaisePolicy. It is carried on the wire but does not change
	// behaviour.
	Raise RaisePolicy
}

// entry is one retained distinct label.
type entry struct {
	label  uint64
	weight uint64 // the label's value (1 for plain distinct counting)
	level  int32  // cached ℓ(label), so raises need no re-hashing
}

// Sampler maintains a coordinated adaptive sample of the distinct
// labels in a stream, per Gibbons–Tirthapura. The zero value is not
// usable; construct with NewSampler.
//
// The sample is held in the shape the wire format sends it: a slice
// sorted by label, so encoding is a linear walk, decoding an append
// loop, and merges and set operations are two-way merges. Process
// appends the labels it admits to a small unsorted pending buffer;
// flush sorts and deduplicates that buffer, merges it into the sorted
// slice and raises the level if the sample overflows. It runs when the
// buffer is full and before any method that reads the sample.
// Deferring the raise this way reaches exactly the state an immediate
// raise would: the level is a function of the distinct label set only.
//
// Samplers are not safe for concurrent use — not even two concurrent
// reads, since a read may flush. In the distributed-streams model each
// party owns its sampler exclusively.
type Sampler struct {
	cfg   Config
	hash  hashing.Family
	level int
	// entries is the sample, strictly increasing by label.
	entries []entry
	// pending holds labels admitted since the last flush, in arrival
	// order, all at or above level. A label may repeat, or already be
	// in entries; the earliest occurrence wins.
	pending []entry
	// weightSum caches Σ weights over entries so estimates are O(1).
	weightSum uint64
	// recent is Process's filter of recently admitted labels,
	// allocated on first use (decoded and cloned samplers that are
	// only merged and read never pay for it).
	recent *recentFilter
}

// recentFilter remembers labels Process admitted, each in a slot
// chosen by its hash, so the repeats of a skewed stream's heavy
// hitters stop there instead of refilling pending. A remembered label
// is in entries or pending unless a raise dropped it since, and then
// its level is below the sampler's, so Process rejects it before
// consulting the filter.
type recentFilter struct {
	label [recentSlots]uint64
	set   uint64 // bit i marks label[i] as filled
}

// recentSlots is the size of a recentFilter; set holds one bit per
// slot, so it is at most 64.
const recentSlots = 64

// pendingCap bounds the pending buffer: small enough that an insertion
// sort orders it cheaply, large enough to amortize the linear merge
// into the sample over many admitted labels.
const pendingCap = 32

// NewSampler returns an empty sampler for the given configuration.
// It panics if cfg.Capacity < 1 or the family is unknown, since a
// mis-parameterized sketch is a programming error, not a runtime
// condition.
func NewSampler(cfg Config) *Sampler {
	if cfg.Capacity < 1 {
		panic(fmt.Sprintf("core: sampler capacity must be >= 1, got %d", cfg.Capacity))
	}
	if !cfg.Family.valid() {
		panic(fmt.Sprintf("core: unknown hash family %d", cfg.Family))
	}
	return &Sampler{
		cfg:     cfg,
		hash:    cfg.Family.New(cfg.Seed),
		entries: make([]entry, 0, cfg.Capacity+pendingCap),
		pending: make([]entry, 0, pendingCap),
	}
}

// Config returns the sampler's configuration.
func (s *Sampler) Config() Config { return s.cfg }

// Level returns the sampler's current sampling level; the sample
// contains exactly the distinct labels with ℓ(label) ≥ Level, each of
// which the scheme retains with probability 2^-Level.
func (s *Sampler) Level() int {
	s.flush()
	return s.level
}

// Len returns the number of distinct labels currently retained.
func (s *Sampler) Len() int {
	s.flush()
	return len(s.entries)
}

// Process observes one occurrence of label. Duplicate occurrences are
// free: the sampler's state is a function of the distinct label set
// only.
//
// hotpath: called once per stream item.
func (s *Sampler) Process(label uint64) {
	s.ProcessWeighted(label, 1)
}

// ProcessWeighted observes label carrying a value. The
// duplicate-insensitive model requires every occurrence of a label to
// carry the same value; ProcessWeighted keeps the first value it
// retains and ignores repeats, matching the paper's "each label has a
// fixed associated value" semantics.
//
// hotpath: called once per stream item.
func (s *Sampler) ProcessWeighted(label, value uint64) {
	h := s.hash.Hash(label)
	lvl := hashing.GeometricLevel(h)
	if lvl < s.level {
		return // below the sample's threshold: discarded unseen
	}
	r := s.recent
	if r == nil {
		// allocflow:amortized allocated once, on the sampler's first admitted label
		r = new(recentFilter)
		s.recent = r
	}
	slot := h % recentSlots
	if r.set>>slot&1 != 0 && r.label[slot] == label {
		return // a repeat of a label already retained or pending
	}
	r.label[slot] = label
	r.set |= 1 << slot
	// allocflow:amortized pending is truncated, not freed, at every flush, and never holds more than pendingCap entries
	s.pending = append(s.pending, entry{label: label, weight: value, level: int32(lvl)})
	if len(s.pending) == pendingCap {
		s.flush()
	}
}

// flush folds the pending buffer into the sorted sample and raises
// the level if the sample then overflows. The insertion sort is
// stable, so the first of several pending occurrences of a label stays
// in front and the dedupe keeps the first value, as an immediate
// insert would have.
func (s *Sampler) flush() {
	if len(s.pending) == 0 {
		return
	}
	p := s.pending
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && p[j].label < p[j-1].label; j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
	n := 1
	for _, e := range p[1:] {
		if e.label != p[n-1].label {
			p[n] = e
			n++
		}
	}
	s.absorb(p[:n])
	s.pending = s.pending[:0]
	if len(s.entries) > s.cfg.Capacity {
		s.raise()
	}
}

// absorb merges the label-sorted src into entries, skipping src
// entries below the level or already present (an existing entry keeps
// its value). It counts the additions first so the merge can run
// backwards in place, with no scratch slice.
func (s *Sampler) absorb(src []entry) {
	if len(src) == 0 {
		return
	}
	add, i := 0, 0
	for _, e := range src {
		if int(e.level) < s.level {
			continue
		}
		for i < len(s.entries) && s.entries[i].label < e.label {
			i++
		}
		if i == len(s.entries) || s.entries[i].label != e.label {
			add++
		}
	}
	if add == 0 {
		return
	}
	n := len(s.entries)
	if n+add > cap(s.entries) {
		// Merge never grows a settled sample past Capacity+1, nor flush
		// past Capacity+pendingCap, so growing straight to that size
		// makes this the sample's last reallocation.
		// allocflow:amortized entries keeps its capacity across merges and raises, so this runs at most once per sampler in steady state
		grown := make([]entry, n, max(n+add, s.cfg.Capacity+pendingCap))
		copy(grown, s.entries)
		s.entries = grown
	}
	s.entries = s.entries[:n+add]
	i, k := n-1, n+add-1
	for j := len(src) - 1; k > i; j-- {
		e := src[j]
		if int(e.level) < s.level {
			continue
		}
		for i >= 0 && s.entries[i].label > e.label {
			s.entries[k] = s.entries[i]
			i--
			k--
		}
		if i >= 0 && s.entries[i].label == e.label {
			continue
		}
		s.entries[k] = e
		k--
		s.weightSum += e.weight
	}
}

// raise increases the level to the smallest one above the current
// level whose surviving set fits in Capacity, found from one level
// histogram, and compacts the sample to it in place.
func (s *Sampler) raise() {
	var hist levelHist
	for _, e := range s.entries {
		hist[e.level]++
	}
	s.setLevel(s.fitLevel(&hist, s.level))
}

// levelHist counts sample entries by level.
type levelHist [hashing.MaxLevel + 1]int

// fitLevel returns the smallest level above from at which the entries
// counted in hist fit in Capacity. If they overflow even at the
// maximum level (possible only under adversarial hash collisions far
// beyond the experiments' regimes), it returns MaxLevel: the sampler
// parks there and keeps the overflow rather than drop coordinated
// entries.
func (s *Sampler) fitLevel(hist *levelHist, from int) int {
	suffix, target := 0, hashing.MaxLevel
	for i := hashing.MaxLevel; i > from; i-- {
		suffix += hist[i]
		if suffix > s.cfg.Capacity {
			break
		}
		target = i
	}
	return target
}

// setLevel moves the sampler to a higher level and drops, in place,
// the entries below it.
func (s *Sampler) setLevel(level int) {
	s.level = level
	n := 0
	for _, e := range s.entries {
		if int(e.level) >= level {
			s.entries[n] = e
			n++
		} else {
			s.weightSum -= e.weight
		}
	}
	s.entries = s.entries[:n]
}

// Merge folds other into s, after which s is a coordinated sample of
// the union of the two streams. It returns ErrMismatch if the two
// samplers do not share an identical (Seed, Capacity, Family)
// configuration — the coordination precondition of the paper.
// The raise tag may differ (it does not affect behaviour). A label
// both samplers hold keeps s's value.
func (s *Sampler) Merge(other *Sampler) error {
	if other == nil {
		// allocflow:cold a mismatched merge is refused, not streamed
		return fmt.Errorf("%w: nil sampler", ErrMismatch)
	}
	if s.cfg.Seed != other.cfg.Seed || s.cfg.Capacity != other.cfg.Capacity || s.cfg.Family != other.cfg.Family {
		// allocflow:cold a mismatched merge is refused, not streamed
		return fmt.Errorf("%w: %+v vs %+v", ErrMismatch, s.describe(), other.describe())
	}
	s.flush()
	other.flush()
	// Settle the union's level before merging, so the merge only ever
	// writes the surviving entries and the sample never grows past its
	// post-raise size. The level histogram counts other's entries new
	// to s first: when there are none, and s needs no level change,
	// the merge is a no-op (the common case for redelivered state).
	base := max(s.level, other.level)
	var hist levelHist
	n, i := 0, 0
	for _, e := range other.entries {
		if int(e.level) < base {
			continue
		}
		for i < len(s.entries) && s.entries[i].label < e.label {
			i++
		}
		if i == len(s.entries) || s.entries[i].label != e.label {
			hist[e.level]++
			n++
		}
	}
	if n == 0 && base == s.level && len(s.entries) <= s.cfg.Capacity {
		return nil
	}
	for _, e := range s.entries {
		if int(e.level) >= base {
			hist[e.level]++
			n++
		}
	}
	level := base
	if n > s.cfg.Capacity {
		level = s.fitLevel(&hist, base)
	}
	if level > s.level {
		s.setLevel(level)
	}
	s.absorb(other.entries)
	return nil
}

func (s *Sampler) describe() string {
	return fmt.Sprintf("{seed:%d cap:%d family:%s}", s.cfg.Seed, s.cfg.Capacity, s.cfg.Family)
}

// EstimateDistinct returns the estimate of the number of distinct
// labels observed: |sample| · 2^level.
func (s *Sampler) EstimateDistinct() float64 {
	s.flush()
	return float64(len(s.entries)) * pow2(s.level)
}

// EstimateSum returns the estimate of the sum of values over distinct
// labels: (Σ sampled values) · 2^level. With values all 1 this equals
// EstimateDistinct.
func (s *Sampler) EstimateSum() float64 {
	s.flush()
	return float64(s.weightSum) * pow2(s.level)
}

// EstimateCountWhere returns the estimate of the number of distinct
// labels satisfying pred, computed from the coordinated sample:
// |{x ∈ sample : pred(x)}| · 2^level. The relative error guarantee
// degrades with the predicate's selectivity (experiment E9), exactly
// as for any sample-based estimator.
func (s *Sampler) EstimateCountWhere(pred func(label uint64) bool) float64 {
	s.flush()
	n := 0
	for _, e := range s.entries {
		if pred(e.label) {
			n++
		}
	}
	return float64(n) * pow2(s.level)
}

// EstimateSumWhere is EstimateCountWhere weighted by the labels'
// values.
func (s *Sampler) EstimateSumWhere(pred func(label uint64) bool) float64 {
	s.flush()
	var sum uint64
	for _, e := range s.entries {
		if pred(e.label) {
			sum += e.weight
		}
	}
	return float64(sum) * pow2(s.level)
}

// Sample returns the retained labels in increasing order. The slice
// is a copy.
func (s *Sampler) Sample() []uint64 {
	s.flush()
	out := make([]uint64, len(s.entries))
	for i, e := range s.entries {
		out[i] = e.label
	}
	return out
}

// Clone returns a deep copy of the sampler: one slice copy. The hash
// function is immutable, so the copy shares it.
func (s *Sampler) Clone() *Sampler {
	c := new(Sampler)
	s.copyTo(c)
	return c
}

// copyTo makes *c a deep copy of s.
func (s *Sampler) copyTo(c *Sampler) {
	s.flush()
	*c = *s
	c.entries = append(make([]entry, 0, sampleCap(len(s.entries), s.cfg.Capacity)), s.entries...)
	c.pending = nil
	c.recent = nil
}

// sampleCap is the capacity to allocate for a copied or decoded sample
// of n entries: room for merges to grow it to Capacity+1 without
// reallocating, but never more than twice n, so a decoder's allocation
// stays proportional to its input whatever capacity a header declares.
func sampleCap(n, capacity int) int {
	return max(n, min(capacity+1, 2*n))
}

// Reset returns the sampler to its empty state, keeping its
// configuration (and hence its coordination seed).
func (s *Sampler) Reset() {
	s.level = 0
	s.weightSum = 0
	s.entries = s.entries[:0]
	s.pending = s.pending[:0]
	if s.recent != nil {
		s.recent.set = 0
	}
}

// pow2 returns 2^i as a float64 for 0 <= i <= MaxLevel.
func pow2(i int) float64 {
	return float64(uint64(1) << uint(i))
}
