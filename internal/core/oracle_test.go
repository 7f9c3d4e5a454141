package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/hashing"
)

// Differential test: the sorted-slice Sampler against refSampler, the
// map-backed implementation it replaced. Both are driven through the
// same seeded operation sequence; every encoding must be byte-identical
// and every estimate float64-identical. Checks run only at random
// points, so operations regularly start from a sampler whose insert
// buffer still holds unflushed labels.

type oraclePair struct {
	s   *Sampler
	ref *refSampler
}

func oracleCheck(t *testing.T, where string, p oraclePair) {
	t.Helper()
	got, err := p.s.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: marshal: %v", where, err)
	}
	if want := p.ref.MarshalBinary(); !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding differs from reference (level %d/%d, len %d/%d)",
			where, p.s.Level(), p.ref.level, p.s.Len(), len(p.ref.entries))
	}
	if p.s.SizeBytes() != len(got) {
		t.Fatalf("%s: SizeBytes %d != encoded length %d", where, p.s.SizeBytes(), len(got))
	}
	if a, b := p.s.EstimateDistinct(), p.ref.EstimateDistinct(); a != b {
		t.Fatalf("%s: EstimateDistinct %v != reference %v", where, a, b)
	}
	if a, b := p.s.EstimateSum(), p.ref.EstimateSum(); a != b {
		t.Fatalf("%s: EstimateSum %v != reference %v", where, a, b)
	}
	pred := func(x uint64) bool { return x%3 == 1 }
	if a, b := p.s.EstimateCountWhere(pred), p.ref.EstimateCountWhere(pred); a != b {
		t.Fatalf("%s: EstimateCountWhere %v != reference %v", where, a, b)
	}
	if a, b := p.s.EstimateSumWhere(pred), p.ref.EstimateSumWhere(pred); a != b {
		t.Fatalf("%s: EstimateSumWhere %v != reference %v", where, a, b)
	}
}

func TestSamplerMatchesMapReference(t *testing.T) {
	for _, capacity := range []int{1, 16, 256} {
		for _, raise := range []RaisePolicy{RaiseIncrement, RaiseJump} {
			for _, seed := range []uint64{1, 2, 3} {
				t.Run(fmt.Sprintf("cap%d-%s-seed%d", capacity, raise, seed), func(t *testing.T) {
					oracleRun(t, Config{Capacity: capacity, Seed: 1000 + seed, Raise: raise}, seed)
				})
			}
		}
	}
}

func oracleRun(t *testing.T, cfg Config, seed uint64) {
	r := hashing.NewXoshiro256(seed)
	pool := make([]oraclePair, 4)
	for i := range pool {
		pool[i] = oraclePair{NewSampler(cfg), newRefSampler(cfg)}
	}
	// The universe is small enough that labels repeat (exercising the
	// first-value-wins rule) and large enough to force raises.
	universe := uint64(64 * cfg.Capacity)
	for op := 0; op < 400; op++ {
		i, j := r.Intn(len(pool)), r.Intn(len(pool))
		a, b := pool[i], pool[j]
		where := fmt.Sprintf("op %d", op)
		switch k := r.Intn(10); {
		case k < 4: // a burst of stream items, weighted with repeats
			n := r.Intn(3 * cfg.Capacity * 4)
			weighted := r.Intn(2) == 0
			for x := 0; x < n; x++ {
				label := r.Uint64n(universe)
				if weighted {
					v := 1 + r.Uint64n(50)
					a.s.ProcessWeighted(label, v)
					a.ref.ProcessWeighted(label, v)
				} else {
					a.s.Process(label)
					a.ref.Process(label)
				}
			}
		case k < 6: // merge in both orders
			if i == j {
				continue
			}
			ab, abRef := a.s.Clone(), a.ref.Clone()
			if err := ab.Merge(b.s); err != nil {
				t.Fatal(err)
			}
			abRef.Merge(b.ref)
			oracleCheck(t, where+" a∪b", oraclePair{ab, abRef})
			if err := b.s.Merge(a.s); err != nil {
				t.Fatal(err)
			}
			b.ref.Merge(a.ref)
		case k == 6: // sketch-valued set operations
			x, err := IntersectSamplers(a.s, b.s)
			if err != nil {
				t.Fatal(err)
			}
			oracleCheck(t, where+" a∩b", oraclePair{x, refIntersect(a.ref, b.ref)})
			d, err := DiffSamplers(a.s, b.s)
			if err != nil {
				t.Fatal(err)
			}
			oracleCheck(t, where+" a\\b", oraclePair{d, refDiff(a.ref, b.ref)})
		case k == 7: // scalar set estimators
			checkScalar(t, where+" intersection", EstimateIntersection, refEstimateIntersection, a, b)
			checkScalar(t, where+" difference", EstimateDifference, refEstimateDifference, a, b)
			checkScalar(t, where+" jaccard", EstimateJaccard, refEstimateJaccard, a, b)
		case k == 8: // clones are independent of their source
			before, _ := a.s.MarshalBinary()
			c := a.s.Clone()
			cRef := a.ref.Clone()
			for x := 0; x < 50; x++ {
				label := r.Uint64n(universe)
				c.Process(label)
				cRef.Process(label)
			}
			oracleCheck(t, where+" clone", oraclePair{c, cRef})
			if after, _ := a.s.MarshalBinary(); !bytes.Equal(before, after) {
				t.Fatalf("%s: processing into a clone changed its source", where)
			}
		default:
			if r.Intn(4) == 0 {
				a.s.Reset()
				a.ref.Reset()
			}
		}
		if r.Intn(3) == 0 {
			oracleCheck(t, where, a)
			oracleCheck(t, where, b)
		}
	}
	for i, p := range pool {
		oracleCheck(t, fmt.Sprintf("final %d", i), p)
	}
}

func checkScalar(t *testing.T, where string,
	f func(a, b *Sampler) (float64, error), ref func(a, b *refSampler) float64, a, b oraclePair) {
	t.Helper()
	got, err := f(a.s, b.s)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref(a.ref, b.ref); got != want {
		t.Fatalf("%s: %v != reference %v", where, got, want)
	}
}
