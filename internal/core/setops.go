package core

import "fmt"

// Set-operation estimators over coordinated samples.
//
// These extend the paper's union estimator in the direction its
// successors (KMV/theta sketches) made standard. The key observation
// is the coordinated-sample invariant: at level L ≥ max of the two
// samplers' levels, sampler A's retained set is *exactly*
// {x ∈ distinct(A) : ℓ(x) ≥ L} — so intersecting or differencing the
// two retained sets gives a level-L coordinated sample of A∩B or A\B,
// and scaling by 2^L estimates its size. No such query is possible
// across sketches with independent seeds, which is why coordination is
// the enabling idea.

// checkCoordinated validates that two samplers share a configuration.
func checkCoordinated(a, b *Sampler) error {
	if a == nil || b == nil {
		return fmt.Errorf("%w: nil sampler", ErrMismatch)
	}
	if a.cfg.Seed != b.cfg.Seed || a.cfg.Capacity != b.cfg.Capacity || a.cfg.Family != b.cfg.Family {
		return fmt.Errorf("%w: %s vs %s", ErrMismatch, a.describe(), b.describe())
	}
	return nil
}

// overlap walks two coordinated samples in label order, counting at
// or above level the labels only a holds, both hold, and only b holds.
// Every set estimator is a ratio or scaling of these three counts.
// Callers fold pending labels first (pairLevel does).
func overlap(a, b *Sampler, level int) (onlyA, both, onlyB int) {
	x, y := a.entries, b.entries
	i, j := 0, 0
	for i < len(x) || j < len(y) {
		switch {
		case i < len(x) && int(x[i].level) < level:
			i++
		case j < len(y) && int(y[j].level) < level:
			j++
		case j == len(y) || (i < len(x) && x[i].label < y[j].label):
			onlyA++
			i++
		case i == len(x) || y[j].label < x[i].label:
			onlyB++
			j++
		default:
			both++
			i++
			j++
		}
	}
	return onlyA, both, onlyB
}

// pairLevel returns the level set estimators work at: the higher of
// the two samplers' levels, after folding pending labels.
func pairLevel(a, b *Sampler) int {
	return max(a.Level(), b.Level())
}

// EstimateIntersection estimates |A ∩ B| for the distinct label sets
// sketched by two coordinated samplers. The effective sample for the
// intersection has expected size |A∩B|/2^L, so the error guarantee
// degrades when the intersection is much smaller than either set —
// the same selectivity effect as predicate counts (E9).
func EstimateIntersection(a, b *Sampler) (float64, error) {
	if err := checkCoordinated(a, b); err != nil {
		return 0, err
	}
	level := pairLevel(a, b)
	_, both, _ := overlap(a, b, level)
	return float64(both) * pow2(level), nil
}

// EstimateDifference estimates |A \ B| (labels in A's stream but not
// B's). Soundness rests on the invariant: if a label at level ≥ L is
// absent from B's sample, it is truly absent from B's stream.
func EstimateDifference(a, b *Sampler) (float64, error) {
	if err := checkCoordinated(a, b); err != nil {
		return 0, err
	}
	level := pairLevel(a, b)
	onlyA, _, _ := overlap(a, b, level)
	return float64(onlyA) * pow2(level), nil
}

// EstimateJaccard estimates the Jaccard similarity
// |A∩B| / |A∪B| ∈ [0, 1] of the two sketched label sets. The 2^L
// scale factors cancel, so this is a pure ratio of coordinated sample
// counts.
func EstimateJaccard(a, b *Sampler) (float64, error) {
	if err := checkCoordinated(a, b); err != nil {
		return 0, err
	}
	onlyA, both, onlyB := overlap(a, b, pairLevel(a, b))
	union := onlyA + both + onlyB
	if union == 0 {
		return 0, nil
	}
	return float64(both) / float64(union), nil
}

// Sketch-valued set operations. The same invariant that makes the
// scalar estimators sound makes the operations *close over the
// sampler domain*: the level-L filtered intersection (or difference)
// of two coordinated retained sets is exactly a level-L coordinated
// sample of A∩B (or A\B) under the shared hash — a valid Sampler in
// its own right, whose EstimateDistinct equals the scalar estimate.
// That closure is what lets set operators nest in query expressions.

// IntersectSamplers returns a coordinated level-max(La,Lb) sample of
// A ∩ B. Retained entries keep a's weights (the fixed-value-per-label
// model makes a's and b's weights for a shared label equal anyway).
func IntersectSamplers(a, b *Sampler) (*Sampler, error) {
	if err := checkCoordinated(a, b); err != nil {
		return nil, err
	}
	return selectShared(a, b, true), nil
}

// DiffSamplers returns a coordinated level-max(La,Lb) sample of A \ B.
func DiffSamplers(a, b *Sampler) (*Sampler, error) {
	if err := checkCoordinated(a, b); err != nil {
		return nil, err
	}
	return selectShared(a, b, false), nil
}

// selectShared returns the sample of a's entries at or above
// max(La, Lb) that b also holds (shared) or lacks (!shared), in one
// two-way merge. A label has the same level in both coordinated
// samplers, so a's level check covers b's entry too.
func selectShared(a, b *Sampler, shared bool) *Sampler {
	out := &Sampler{cfg: a.cfg, hash: a.hash, level: pairLevel(a, b)}
	out.entries = make([]entry, 0, len(a.entries))
	j := 0
	for _, e := range a.entries {
		if int(e.level) < out.level {
			continue
		}
		for j < len(b.entries) && b.entries[j].label < e.label {
			j++
		}
		if inB := j < len(b.entries) && b.entries[j].label == e.label; inB == shared {
			out.entries = append(out.entries, e)
			out.weightSum += e.weight
		}
	}
	return out
}

// Estimator-level variants: medians across the paired copies.

// estimatorPairwise applies f to each coordinated copy pair and
// returns the median.
func estimatorPairwise(a, b *Estimator, f func(x, y *Sampler) (float64, error)) (float64, error) {
	if a == nil || b == nil {
		return 0, fmt.Errorf("%w: nil estimator", ErrMismatch)
	}
	if a.cfg != b.cfg {
		return 0, fmt.Errorf("%w: estimator configs %+v vs %+v", ErrMismatch, a.cfg, b.cfg)
	}
	vals := make([]float64, len(a.copies))
	for i := range a.copies {
		v, err := f(a.copies[i], b.copies[i])
		if err != nil {
			return 0, err
		}
		vals[i] = v
	}
	return Median(vals), nil
}

// EstimateIntersection estimates |A ∩ B| as the median over copy
// pairs; see the Sampler-level function for guarantees.
func (e *Estimator) EstimateIntersection(other *Estimator) (float64, error) {
	return estimatorPairwise(e, other, EstimateIntersection)
}

// EstimateDifference estimates |A \ B| as the median over copy pairs.
func (e *Estimator) EstimateDifference(other *Estimator) (float64, error) {
	return estimatorPairwise(e, other, EstimateDifference)
}

// EstimateJaccard estimates Jaccard similarity as the median over
// copy pairs.
func (e *Estimator) EstimateJaccard(other *Estimator) (float64, error) {
	return estimatorPairwise(e, other, EstimateJaccard)
}
