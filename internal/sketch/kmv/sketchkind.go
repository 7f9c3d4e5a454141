package kmv

import (
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
		Decode: decodeInto,
	})
}

// decodeInto is the registry's Decode: it decodes into dst's heap
// when dst is a *Sketch, and into a fresh sketch otherwise.
func decodeInto(dst sketch.Sketch, payload []byte) (sketch.Sketch, error) {
	s, _ := dst.(*Sketch)
	if s == nil {
		s = new(Sketch)
	}
	if err := s.decode(payload); err != nil {
		return nil, err
	}
	return s, nil
}

// Kind implements sketch.Sketch.
func (s *Sketch) Kind() sketch.Kind { return sketch.KindKMV }

// Seed implements sketch.Sketch.
func (s *Sketch) Seed() uint64 { return s.seed }

// Clone implements sketch.Sketch: a copy of the heap. The copy
// rebuilds its membership map if it ever needs one.
func (s *Sketch) Clone() sketch.Sketch {
	c := *s
	c.heap = slices.Clone(s.heap)
	c.members = nil
	return &c
}

// Digest implements sketch.Sketch.
func (s *Sketch) Digest() uint64 {
	return sketch.ConfigDigest(sketch.KindKMV, uint64(s.k), s.seed)
}
