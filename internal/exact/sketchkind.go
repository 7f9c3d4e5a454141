package exact

import (
	"encoding/binary"
	"fmt"
	"maps"
	"sort"

	"repro/internal/sketch"
)

// This file registers the exact distinct set as sketch.KindExact, so
// the "ship the whole set" communication baseline can travel the same
// envelopes and merge groups as the real sketches (E6's comparison
// over the network needs exactly that).

// ErrCorrupt is returned when decoding a malformed encoding.
var ErrCorrupt = fmt.Errorf("exact: corrupt encoding: %w", sketch.ErrCorrupt)

func init() {
	sketch.Register(sketch.KindInfo{
		Kind:    sketch.KindExact,
		Name:    "exact",
		Version: 1,
		// eps and seed are ignored: the exact set is parameter-free.
		New: func(float64, uint64) sketch.Sketch { return NewDistinct() },
		Decode: func(_ sketch.Sketch, payload []byte) (sketch.Sketch, error) {
			return Decode(payload)
		},
	})
}

// Estimate implements sketch.Sketch: the exact distinct count.
func (d *Distinct) Estimate() float64 { return float64(len(d.values)) }

// EstimateSum implements sketch.Summer: the exact sum.
func (d *Distinct) EstimateSum() float64 { return float64(d.sum) }

// EstimateCountWhere implements sketch.PredicateEstimator.
func (d *Distinct) EstimateCountWhere(pred func(label uint64) bool) float64 {
	return float64(d.CountWhere(pred))
}

// EstimateSumWhere implements sketch.PredicateEstimator.
func (d *Distinct) EstimateSumWhere(pred func(label uint64) bool) float64 {
	return float64(d.SumWhere(pred))
}

// Kind implements sketch.Sketch.
func (d *Distinct) Kind() sketch.Kind { return sketch.KindExact }

// Seed implements sketch.Sketch: exact sets are seedless.
func (d *Distinct) Seed() uint64 { return 0 }

// Clone implements sketch.Sketch: a copy of the value map.
func (d *Distinct) Clone() sketch.Sketch {
	return &Distinct{values: maps.Clone(d.values), sum: d.sum}
}

// Digest implements sketch.Sketch: every exact set is
// merge-compatible with every other, so the digest is constant.
func (d *Distinct) Digest() uint64 { return sketch.ConfigDigest(sketch.KindExact) }

// exactMagic opens every encoding; the trailing byte is the version.
var exactMagic = [3]byte{'E', 'X', '1'}

// MarshalBinary implements sketch.Sketch. The encoding is canonical:
// magic, uvarint count, then (label, value) uint64 pairs in strictly
// ascending label order — equal sets always encode to equal bytes.
func (d *Distinct) MarshalBinary() ([]byte, error) {
	labels := make([]uint64, 0, len(d.values))
	for label := range d.values {
		labels = append(labels, label)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	b := make([]byte, 0, len(exactMagic)+binary.MaxVarintLen64+16*len(labels))
	b = append(b, exactMagic[:]...)
	b = binary.AppendUvarint(b, uint64(len(labels)))
	for _, label := range labels {
		b = binary.LittleEndian.AppendUint64(b, label)
		b = binary.LittleEndian.AppendUint64(b, d.values[label])
	}
	return b, nil
}

// UnmarshalBinary decodes MarshalBinary's output into d, replacing
// its state. It rejects unsorted or duplicated labels — the encoding
// is canonical, so anything else is damage.
func (d *Distinct) UnmarshalBinary(data []byte) error {
	if len(data) < len(exactMagic) || [3]byte(data[:3]) != exactMagic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	data = data[len(exactMagic):]
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return fmt.Errorf("%w: bad count", ErrCorrupt)
	}
	data = data[k:]
	if uint64(len(data)) != 16*n {
		return fmt.Errorf("%w: %d payload bytes for %d entries", ErrCorrupt, len(data), n)
	}
	values := make(map[uint64]uint64, n)
	var sum uint64
	prev, first := uint64(0), true
	for i := uint64(0); i < n; i++ {
		label := binary.LittleEndian.Uint64(data[16*i:])
		value := binary.LittleEndian.Uint64(data[16*i+8:])
		if !first && label <= prev {
			return fmt.Errorf("%w: labels not strictly ascending", ErrCorrupt)
		}
		prev, first = label, false
		values[label] = value
		sum += value
	}
	d.values = values
	d.sum = sum
	return nil
}

// Decode parses a MarshalBinary encoding into a fresh set.
func Decode(payload []byte) (sketch.Sketch, error) {
	d := NewDistinct()
	if err := d.UnmarshalBinary(payload); err != nil {
		return nil, err
	}
	return d, nil
}
