package ll

import (
	"slices"

	"repro/internal/sketch"
)

func init() {
	sketch.Register(sketch.KindInfo{
		Kind:    sketch.KindLogLog,
		Name:    "hll",
		Version: 1,
		New: func(eps float64, seed uint64) sketch.Sketch {
			return New(NumRegsForEpsilon(eps), seed)
		},
		Decode: decodeInto,
	})
}

// decodeInto is the registry's Decode: it decodes into dst's registers
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
func (s *Sketch) Kind() sketch.Kind { return sketch.KindLogLog }

// Seed implements sketch.Sketch.
func (s *Sketch) Seed() uint64 { return s.seed }

// Clone implements sketch.Sketch: a copy of the registers. The hash
// functions, once built, are immutable and shared.
func (s *Sketch) Clone() sketch.Sketch {
	c := *s
	c.regs = slices.Clone(s.regs)
	return &c
}

// Digest implements sketch.Sketch.
func (s *Sketch) Digest() uint64 {
	var weak uint64
	if s.weak {
		weak = 1
	}
	return sketch.ConfigDigest(sketch.KindLogLog, uint64(s.numRegs), s.seed, weak)
}
