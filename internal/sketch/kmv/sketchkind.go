package kmv

import (
	"maps"
	"slices"

	"repro/internal/sketch"
)

func init() {
	sketch.Register(sketch.KindInfo{
		Kind:    sketch.KindKMV,
		Name:    "kmv",
		Version: 1,
		New: func(eps float64, seed uint64) sketch.Sketch {
			return New(KForEpsilon(eps), seed)
		},
		Decode: func(payload []byte) (sketch.Sketch, error) {
			var s Sketch
			if err := s.UnmarshalBinary(payload); err != nil {
				return nil, err
			}
			return &s, nil
		},
	})
}

// Kind implements sketch.Sketch.
func (s *Sketch) Kind() sketch.Kind { return sketch.KindKMV }

// Seed implements sketch.Sketch.
func (s *Sketch) Seed() uint64 { return s.seed }

// Clone implements sketch.Sketch: copies of the heap and of its
// membership map.
func (s *Sketch) Clone() sketch.Sketch {
	c := *s
	c.heap = slices.Clone(s.heap)
	c.members = maps.Clone(s.members)
	return &c
}

// Digest implements sketch.Sketch.
func (s *Sketch) Digest() uint64 {
	return sketch.ConfigDigest(sketch.KindKMV, uint64(s.k), s.seed)
}
