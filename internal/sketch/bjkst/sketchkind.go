package bjkst

import (
	"fmt"
	"maps"

	"repro/internal/sketch"
)

func init() {
	sketch.Register(sketch.KindInfo{
		Kind:    sketch.KindBJKST,
		Name:    "bjkst",
		Version: 1,
		// BJKST's space bound is Θ(1/ε²) buckets, same shape as the
		// paper's sampler capacity.
		New: func(eps float64, seed uint64) sketch.Sketch {
			if eps <= 0 || eps > 1 {
				panic(fmt.Sprintf("bjkst: epsilon must be in (0, 1], got %v", eps))
			}
			c := int(1/(eps*eps) + 0.5)
			if c < 1 {
				c = 1
			}
			return New(c, seed)
		},
		Decode: func(_ sketch.Sketch, payload []byte) (sketch.Sketch, error) {
			var s Sketch
			if err := s.UnmarshalBinary(payload); err != nil {
				return nil, err
			}
			return &s, nil
		},
	})
}

// Kind implements sketch.Sketch.
func (s *Sketch) Kind() sketch.Kind { return sketch.KindBJKST }

// Seed implements sketch.Sketch.
func (s *Sketch) Seed() uint64 { return s.seed }

// Clone implements sketch.Sketch: a copy of the bucket map.
func (s *Sketch) Clone() sketch.Sketch {
	c := *s
	c.buckets = maps.Clone(s.buckets)
	return &c
}

// Digest implements sketch.Sketch.
func (s *Sketch) Digest() uint64 {
	return sketch.ConfigDigest(sketch.KindBJKST, uint64(s.capacity), s.seed)
}
