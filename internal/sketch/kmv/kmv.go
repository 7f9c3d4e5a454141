// Package kmv implements the K-Minimum-Values (bottom-k) distinct
// count sketch — the modern descendant of the paper's coordinated
// sampling idea (the lineage runs GT'01 → Bar-Yossef et al. '02 →
// KMV/theta sketches as in Apache DataSketches).
//
// The sketch keeps the k smallest distinct hash values of the stream;
// with the k-th smallest value mapped to the unit interval as v, the
// estimate is (k-1)/v. Like the GT sampler, KMV sketches sharing a
// seed are coordinated: they merge by keeping the k smallest of the
// union, and the overlap of two sketches' bottom-k sets estimates the
// Jaccard similarity of the underlying streams.
package kmv

import (
	"fmt"

	"repro/internal/hashing"
	"repro/internal/sketch"
)

// ErrMismatch is returned when merging sketches with different
// configurations.
var ErrMismatch = fmt.Errorf("kmv: cannot merge sketches with different configurations: %w", sketch.ErrMismatch)

// Sketch is a bottom-k distinct-count sketch. Construct with New.
type Sketch struct {
	k    int
	seed uint64
	hash hashing.Pairwise
	// heap is a max-heap of the current bottom-k hash values, so the
	// largest retained value (the eviction candidate) is at the root.
	heap []uint64
	// members dedups hash values currently in the heap. It is built
	// from heap on first use (see memberSet), so a decoded or cloned
	// sketch that is only merged from, encoded or estimated never
	// pays for it.
	members map[uint64]struct{}
}

// New returns a bottom-k sketch. Relative standard error ≈ 1/√(k-2).
// k must be ≥ 2.
func New(k int, seed uint64) *Sketch {
	if k < 2 {
		panic(fmt.Sprintf("kmv: k must be >= 2, got %d", k))
	}
	return &Sketch{
		k:    k,
		seed: seed,
		hash: hashing.NewPairwise(seed),
		heap: make([]uint64, 0, k),
	}
}

// Process observes one occurrence of label.
//
// hotpath: called once per stream item.
func (s *Sketch) Process(label uint64) {
	s.insert(s.hash.Hash(label))
}

// insert folds one hash value into the k smallest.
//
// hotpath: called once per stream item (from Process).
func (s *Sketch) insert(v uint64) {
	if len(s.heap) == s.k && v >= s.heap[0] {
		return // not smaller than the current k-th value
	}
	members := s.memberSet()
	if _, dup := members[v]; dup {
		return
	}
	if len(s.heap) < s.k {
		members[v] = struct{}{}
		// allocflow:amortized heap grows to k once, then replaces in place
		s.heap = append(s.heap, v)
		s.siftUp(len(s.heap) - 1)
		return
	}
	// Replace the root (largest retained) with v.
	delete(members, s.heap[0])
	members[v] = struct{}{}
	s.heap[0] = v
	s.siftDown(0)
}

// memberSet returns the membership map of the heap's values, building
// it on first use.
func (s *Sketch) memberSet() map[uint64]struct{} {
	if s.members == nil {
		// cap(heap) is k for a sketch from New and the retained count
		// for a decoded one, so a decoded header's k cannot size it.
		// allocflow:amortized built once per sketch, then kept in step with heap by insert
		s.members = make(map[uint64]struct{}, cap(s.heap))
		for _, v := range s.heap {
			s.members[v] = struct{}{}
		}
	}
	return s.members
}

func (s *Sketch) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent] >= s.heap[i] {
			return
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

func (s *Sketch) siftDown(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && s.heap[l] > s.heap[largest] {
			largest = l
		}
		if r < n && s.heap[r] > s.heap[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		s.heap[i], s.heap[largest] = s.heap[largest], s.heap[i]
		i = largest
	}
}

// Estimate returns the distinct-count estimate: exact while fewer than
// k distinct hash values have been seen, (k-1)/v_k afterwards.
func (s *Sketch) Estimate() float64 {
	if len(s.heap) < s.k {
		return float64(len(s.heap))
	}
	vk := hashing.Fraction(s.heap[0])
	if vk == 0 {
		return float64(s.k)
	}
	return float64(s.k-1) / vk
}

// Merge folds other into s, keeping the bottom-k of the union. Both
// sketches must share k and seed.
func (s *Sketch) Merge(o sketch.Sketch) error {
	other, ok := o.(*Sketch)
	if !ok {
		// allocflow:cold a mismatched merge is refused, not streamed
		return fmt.Errorf("%w: cannot merge %T into *kmv.Sketch", ErrMismatch, o)
	}
	if other == nil || s.k != other.k || s.seed != other.seed {
		return ErrMismatch
	}
	for _, v := range other.heap {
		s.insert(v)
	}
	return nil
}

// Jaccard estimates the Jaccard similarity |A∩B| / |A∪B| of the two
// sketched streams by the overlap within the bottom-k of the union.
// Both sketches must share k and seed.
func (s *Sketch) Jaccard(other *Sketch) (float64, error) {
	if other == nil || s.k != other.k || s.seed != other.seed {
		return 0, ErrMismatch
	}
	union := New(s.k, s.seed)
	if err := union.Merge(s); err != nil {
		return 0, err
	}
	if err := union.Merge(other); err != nil {
		return 0, err
	}
	inBoth := 0
	sm, om := s.memberSet(), other.memberSet()
	for _, v := range union.heap {
		_, inS := sm[v]
		_, inO := om[v]
		if inS && inO {
			inBoth++
		}
	}
	if len(union.heap) == 0 {
		return 0, nil
	}
	return float64(inBoth) / float64(len(union.heap)), nil
}

// Len returns the number of retained hash values.
func (s *Sketch) Len() int { return len(s.heap) }

// K returns the configured k.
func (s *Sketch) K() int { return s.k }

// SizeBytes returns the sketch payload size: 8 bytes per retained
// value.
func (s *Sketch) SizeBytes() int { return 8 * len(s.heap) }

// Reset clears the sketch, keeping its configuration.
func (s *Sketch) Reset() {
	s.heap = s.heap[:0]
	clear(s.members)
}

// KForEpsilon returns the k targeting relative error eps
// (stderr ≈ 1/√(k-2)).
func KForEpsilon(eps float64) int {
	if eps <= 0 || eps > 1 {
		panic(fmt.Sprintf("kmv: epsilon must be in (0, 1], got %v", eps))
	}
	k := int(1/(eps*eps)+0.5) + 2
	if k < 2 {
		k = 2
	}
	return k
}
