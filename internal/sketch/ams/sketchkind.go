package ams

import (
	"fmt"
	"slices"

	"repro/internal/sketch"
)

func init() {
	sketch.Register(sketch.KindInfo{
		Kind:    sketch.KindAMS,
		Name:    "ams",
		Version: 1,
		// AMS's per-copy estimator has constant relative error; copies
		// only tighten the success probability, so eps maps to a copy
		// count the way δ maps to medians elsewhere.
		New: func(eps float64, seed uint64) sketch.Sketch {
			if eps <= 0 || eps > 1 {
				panic(fmt.Sprintf("ams: epsilon must be in (0, 1], got %v", eps))
			}
			return New(int(2/eps)+1, seed)
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
func (s *Sketch) Kind() sketch.Kind { return sketch.KindAMS }

// Seed implements sketch.Sketch.
func (s *Sketch) Seed() uint64 { return s.seed }

// Clone implements sketch.Sketch: a copy of the per-copy maxima. The
// hash functions are immutable and shared.
func (s *Sketch) Clone() sketch.Sketch {
	c := *s
	c.maxLvl = slices.Clone(s.maxLvl)
	return &c
}

// Digest implements sketch.Sketch.
func (s *Sketch) Digest() uint64 {
	return sketch.ConfigDigest(sketch.KindAMS, uint64(len(s.maxLvl)), s.seed)
}
