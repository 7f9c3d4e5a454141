package core

import (
	"math"

	"repro/internal/sketch"
)

// This file is the Estimator's registration as sketch.KindGT — the
// glue that lets the networked coordinator, the simulator, and the
// public API treat the paper's estimator as just another registered
// kind.

// registerDelta is the failure probability KindInfo.New targets when
// only eps is given; matches the repository's usual δ default.
const registerDelta = 0.05

func init() {
	sketch.Register(sketch.KindInfo{
		Kind:    sketch.KindGT,
		Name:    "gt",
		Version: 1,
		New: func(eps float64, seed uint64) sketch.Sketch {
			return NewEstimator(ConfigForAccuracy(eps, registerDelta, seed))
		},
		Decode: decodeInto,
	})
}

// decodeInto is the registry's Decode: it decodes into dst's copies
// when dst is a *Estimator, and into a fresh estimator otherwise.
func decodeInto(dst sketch.Sketch, payload []byte) (sketch.Sketch, error) {
	e, _ := dst.(*Estimator)
	if e == nil {
		e = new(Estimator)
	}
	if err := e.decode(payload); err != nil {
		return nil, err
	}
	return e, nil
}

// Estimate implements sketch.Sketch: the distinct-count estimate.
func (e *Estimator) Estimate() float64 { return e.EstimateDistinct() }

// Kind implements sketch.Sketch.
func (e *Estimator) Kind() sketch.Kind { return sketch.KindGT }

// Seed implements sketch.Sketch: the master coordination seed.
func (e *Estimator) Seed() uint64 { return e.cfg.Seed }

// Digest implements sketch.Sketch: every EstimatorConfig field
// participates, so equal digests mean mergeable estimators.
func (e *Estimator) Digest() uint64 {
	return sketch.ConfigDigest(sketch.KindGT,
		uint64(e.cfg.Capacity), uint64(e.cfg.Copies), e.cfg.Seed,
		uint64(e.cfg.Family), uint64(e.cfg.Raise))
}

// Describe implements sketch.Describer for introspection surfaces.
func (e *Estimator) Describe() map[string]any {
	return map[string]any{
		"capacity": e.cfg.Capacity,
		"copies":   e.cfg.Copies,
		"family":   e.cfg.Family.String(),
		"epsilon":  EpsilonForCapacity(e.cfg.Capacity),
		"delta":    DeltaForCopies(e.cfg.Copies),
	}
}

// DeltaForCopies inverts CopiesForDelta: the failure probability a
// median over r copies targets (r = 1 + 2·log2(1/δ) rounded up).
func DeltaForCopies(r int) float64 {
	if r <= 1 {
		return 0.5
	}
	return math.Pow(0.5, float64((r-1)/2))
}
