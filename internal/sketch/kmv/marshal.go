package kmv

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/hashing"
	"repro/internal/sketch"
)

// ErrCorrupt is returned when decoding a malformed sketch.
var ErrCorrupt = fmt.Errorf("kmv: corrupt sketch encoding: %w", sketch.ErrCorrupt)

// Wire format: magic "KV1", 8-byte seed, uvarint k, uvarint retained
// count, then the retained hash values sorted ascending, delta-encoded
// as uvarints. (Sorting makes the encoding canonical: equal sketch
// states encode identically.)

// MarshalBinary encodes the sketch.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	b := []byte{'K', 'V', '1'}
	b = binary.LittleEndian.AppendUint64(b, s.seed)
	b = binary.AppendUvarint(b, uint64(s.k))
	b = binary.AppendUvarint(b, uint64(len(s.heap)))
	vals := append([]uint64(nil), s.heap...)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	prev := uint64(0)
	for i, v := range vals {
		if i == 0 {
			b = binary.AppendUvarint(b, v)
		} else {
			b = binary.AppendUvarint(b, v-prev)
		}
		prev = v
	}
	return b, nil
}

// UnmarshalBinary decodes a sketch encoded by MarshalBinary, replacing
// s's state entirely.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	var tmp Sketch
	if err := tmp.decode(data); err != nil {
		return err
	}
	*s = tmp
	return nil
}

// decode is UnmarshalBinary into s's own buffers: the heap's backing
// array is reused when it is large enough. On error s is left in an
// unspecified state.
//
// The values arrive ascending, so written in reverse they already form
// a valid max-heap, and no membership map is needed to find
// duplicates: a nonzero delta makes every value larger than the one
// before. Only a delta sum that wraps past 2^64 breaks the order;
// then the values are sorted and checked for duplicates instead, so
// such an encoding is accepted or refused exactly as inserting the
// values one by one would.
func (s *Sketch) decode(data []byte) error {
	if len(data) < 12 || data[0] != 'K' || data[1] != 'V' || data[2] != '1' {
		return fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	seed := binary.LittleEndian.Uint64(data[3:11])
	rest := data[11:]
	k, n := binary.Uvarint(rest)
	if n <= 0 || k < 2 || k > 1<<30 {
		return fmt.Errorf("%w: bad k", ErrCorrupt)
	}
	rest = rest[n:]
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > k {
		return fmt.Errorf("%w: bad count", ErrCorrupt)
	}
	rest = rest[n:]
	// Every value takes at least one byte, so a count beyond the
	// remaining payload is forged. Checking before allocating keeps
	// the allocation proportional to the input, not to the declared
	// count.
	if count > uint64(len(rest)) {
		return fmt.Errorf("%w: count %d exceeds payload", ErrCorrupt, count)
	}
	heap := s.heap[:0]
	if uint64(cap(heap)) < count {
		heap = make([]uint64, 0, count)
	}
	var v uint64
	wrapped := false
	for i := uint64(0); i < count; i++ {
		delta, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("%w: truncated value %d", ErrCorrupt, i)
		}
		rest = rest[n:]
		if i == 0 {
			v = delta
		} else {
			if delta == 0 {
				return fmt.Errorf("%w: duplicate value", ErrCorrupt)
			}
			next := v + delta
			wrapped = wrapped || next < v
			v = next
		}
		heap = append(heap, v)
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	if wrapped {
		slices.Sort(heap)
		for i := 1; i < len(heap); i++ {
			if heap[i] == heap[i-1] {
				return fmt.Errorf("%w: duplicate values in encoding", ErrCorrupt)
			}
		}
	}
	slices.Reverse(heap)
	*s = Sketch{k: int(k), seed: seed, hash: hashing.NewPairwise(seed), heap: heap}
	return nil
}
