package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/hashing"
	"repro/internal/sketch"
)

// EstimatorConfig parameterizes an Estimator: Copies independent
// Samplers whose per-copy configs are derived deterministically from
// one master seed. As with Sampler, distributed parties coordinate by
// agreeing on this one struct.
type EstimatorConfig struct {
	// Capacity per copy; see Config.Capacity.
	Capacity int
	// Copies is the number of independent samplers, r = Θ(log 1/δ);
	// the estimate is the median across copies. Use CopiesForDelta.
	// Must be ≥ 1; odd values make the median unique.
	Copies int
	// Seed is the master seed; copy i uses the i-th value of a
	// SplitMix64 stream seeded with it.
	Seed uint64
	// Family selects the hash family for every copy.
	Family FamilyKind
	// Raise selects the overflow policy for every copy.
	Raise RaisePolicy
}

// ConfigForAccuracy builds an EstimatorConfig achieving relative error
// eps with failure probability delta, per the paper's
// O(log(1/δ)/ε² · log m) space bound.
func ConfigForAccuracy(eps, delta float64, seed uint64) EstimatorConfig {
	return EstimatorConfig{
		Capacity: CapacityForEpsilon(eps),
		Copies:   CopiesForDelta(delta),
		Seed:     seed,
	}
}

// Estimator is the full (ε, δ) coordinated-sampling estimator: r
// independent Sampler copies processed in parallel over the same
// stream, with median aggregation of the copies' estimates. It is the
// type parties exchange in the distributed-streams model.
type Estimator struct {
	cfg    EstimatorConfig
	copies []*Sampler
}

// NewEstimator constructs an estimator. It panics on a non-positive
// Copies or Capacity (programming errors).
func NewEstimator(cfg EstimatorConfig) *Estimator {
	if cfg.Copies < 1 {
		panic(fmt.Sprintf("core: estimator needs >= 1 copy, got %d", cfg.Copies))
	}
	sm := hashing.NewSplitMix64(cfg.Seed)
	copies := make([]*Sampler, cfg.Copies)
	for i := range copies {
		copies[i] = NewSampler(Config{
			Capacity: cfg.Capacity,
			Seed:     sm.Next(),
			Family:   cfg.Family,
			Raise:    cfg.Raise,
		})
	}
	return &Estimator{cfg: cfg, copies: copies}
}

// Config returns the estimator's configuration.
func (e *Estimator) Config() EstimatorConfig { return e.cfg }

// Copies returns the number of independent sampler copies.
func (e *Estimator) Copies() int { return len(e.copies) }

// Copy returns the i-th underlying sampler (for inspection in tests
// and experiments).
func (e *Estimator) Copy(i int) *Sampler { return e.copies[i] }

// Process observes one occurrence of label in every copy.
//
// hotpath: called once per stream item.
func (e *Estimator) Process(label uint64) {
	for _, s := range e.copies {
		s.Process(label)
	}
}

// ProcessWeighted observes label with a value in every copy; see
// Sampler.ProcessWeighted for the fixed-value-per-label contract.
//
// hotpath: called once per stream item.
func (e *Estimator) ProcessWeighted(label, value uint64) {
	for _, s := range e.copies {
		s.ProcessWeighted(label, value)
	}
}

// Merge folds other into e copy-by-copy. other must be another
// *Estimator with an identical EstimatorConfig (ErrMismatch
// otherwise). Afterwards e estimates over the union of the two
// streams.
func (e *Estimator) Merge(o sketch.Sketch) error {
	other, ok := o.(*Estimator)
	if !ok {
		// allocflow:cold a mismatched merge is refused, not streamed
		return fmt.Errorf("%w: cannot merge %T into *core.Estimator", ErrMismatch, o)
	}
	if other == nil {
		// allocflow:cold a mismatched merge is refused, not streamed
		return fmt.Errorf("%w: nil estimator", ErrMismatch)
	}
	if e.cfg != other.cfg {
		// allocflow:cold a mismatched merge is refused, not streamed
		return fmt.Errorf("%w: estimator configs %+v vs %+v", ErrMismatch, e.cfg, other.cfg)
	}
	// Validate every pair first so a failed merge cannot leave e
	// half-updated.
	for i := range e.copies {
		a, b := e.copies[i], other.copies[i]
		if a.cfg.Seed != b.cfg.Seed {
			// allocflow:cold a mismatched merge is refused, not streamed
			return fmt.Errorf("%w: copy %d seed divergence", ErrMismatch, i)
		}
	}
	for i := range e.copies {
		if err := e.copies[i].Merge(other.copies[i]); err != nil {
			return err
		}
	}
	return nil
}

// EstimateDistinct returns the median across copies of the
// distinct-label estimates.
func (e *Estimator) EstimateDistinct() float64 {
	return e.median(func(s *Sampler) float64 { return s.EstimateDistinct() })
}

// EstimateSum returns the median across copies of the
// sum-over-distinct-labels estimates.
func (e *Estimator) EstimateSum() float64 {
	return e.median(func(s *Sampler) float64 { return s.EstimateSum() })
}

// EstimateCountWhere returns the median across copies of the
// predicate-count estimates.
func (e *Estimator) EstimateCountWhere(pred func(label uint64) bool) float64 {
	return e.median(func(s *Sampler) float64 { return s.EstimateCountWhere(pred) })
}

// EstimateSumWhere returns the median across copies of the
// predicate-sum estimates.
func (e *Estimator) EstimateSumWhere(pred func(label uint64) bool) float64 {
	return e.median(func(s *Sampler) float64 { return s.EstimateSumWhere(pred) })
}

func (e *Estimator) median(f func(*Sampler) float64) float64 {
	vals := make([]float64, len(e.copies))
	for i, s := range e.copies {
		vals[i] = f(s)
	}
	return Median(vals)
}

// Reset clears all copies, keeping the configuration.
func (e *Estimator) Reset() {
	for _, s := range e.copies {
		s.Reset()
	}
}

// Clone implements sketch.Sketch: a deep copy that shares no sample
// state with e, made of one slice copy per sampler copy. The copies'
// Sampler values share one allocation.
func (e *Estimator) Clone() sketch.Sketch {
	c := &Estimator{cfg: e.cfg, copies: make([]*Sampler, len(e.copies))}
	block := make([]Sampler, len(e.copies))
	for i, s := range e.copies {
		s.copyTo(&block[i])
		c.copies[i] = &block[i]
	}
	return c
}

// MarshalBinary encodes the estimator: a small header followed by each
// copy's encoding, length-prefixed. The buffer is sized exactly up
// front, so encoding allocates once.
func (e *Estimator) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, e.SizeBytes())
	b = append(b, wireMagic0, wireMagic1, wireVersion)
	b = binary.LittleEndian.AppendUint64(b, e.cfg.Seed)
	b = binary.AppendUvarint(b, uint64(len(e.copies)))
	for _, s := range e.copies {
		b = binary.AppendUvarint(b, uint64(s.SizeBytes()))
		b, _ = s.AppendBinary(b)
	}
	return b, nil
}

// UnmarshalBinary decodes an estimator encoded by MarshalBinary.
func (e *Estimator) UnmarshalBinary(data []byte) error {
	var tmp Estimator
	if err := tmp.decode(data); err != nil {
		return err
	}
	*e = tmp
	return nil
}

// decode is UnmarshalBinary into e's own buffers: e's copies, and
// each copy's sample, are reused (see Sampler.decode), so decoding one
// configuration over and over allocates nothing. It validates the
// whole encoding before it returns nil. On error e is left in an
// unspecified state.
func (e *Estimator) decode(data []byte) error {
	if len(data) < 12 || data[0] != wireMagic0 || data[1] != wireMagic1 {
		return fmt.Errorf("%w: bad estimator header", ErrCorrupt)
	}
	if data[2] != wireVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrCorrupt, data[2])
	}
	seed := binary.LittleEndian.Uint64(data[3:11])
	d := decoder{buf: data[11:]}
	n, err := d.uvarint("copy count")
	if err != nil {
		return err
	}
	if n == 0 || n > 1<<16 {
		return fmt.Errorf("%w: implausible copy count %d", ErrCorrupt, n)
	}
	// Every copy takes at least its length byte, so a copy count
	// beyond the remaining payload is forged.
	if n > uint64(len(d.buf)) {
		return fmt.Errorf("%w: copy count %d exceeds payload", ErrCorrupt, n)
	}
	// The copies past len(e.copies) are kept from earlier decodes.
	copies := e.copies[:cap(e.copies)]
	if len(copies) < int(n) {
		copies = append(copies, make([]*Sampler, int(n)-len(copies))...)
	}
	e.copies = copies[:n]
	for i, s := range e.copies {
		sz, err := d.uvarint("copy length")
		if err != nil {
			return err
		}
		if uint64(len(d.buf)) < sz {
			return fmt.Errorf("%w: truncated copy %d", ErrCorrupt, i)
		}
		if s == nil {
			s = new(Sampler)
			e.copies[i] = s
		}
		if err := s.decode(d.buf[:sz]); err != nil {
			return fmt.Errorf("copy %d: %w", i, err)
		}
		d.buf = d.buf[sz:]
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	first := e.copies[0].cfg
	for i, s := range e.copies {
		if s.cfg.Capacity != first.Capacity || s.cfg.Family != first.Family {
			return fmt.Errorf("%w: copy %d config diverges", ErrCorrupt, i)
		}
	}
	e.cfg = EstimatorConfig{
		Capacity: first.Capacity,
		Copies:   int(n),
		Seed:     seed,
		Family:   first.Family,
		Raise:    first.Raise,
	}
	return nil
}

// SizeBytes returns the estimator's wire-encoding length: the total
// communication a party sends in the one-shot model. It is computed
// from the copies' sizes, without encoding.
func (e *Estimator) SizeBytes() int {
	n := 3 + 8 + uvarintLen(uint64(len(e.copies))) // magic, version, seed, copy count
	for _, s := range e.copies {
		sz := s.SizeBytes()
		n += uvarintLen(uint64(sz)) + sz
	}
	return n
}

// Median returns the median of vals (the mean of the two central
// values for even lengths). It returns 0 for an empty slice and does
// not modify its argument.
func Median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := make([]float64, len(vals))
	copy(sorted, vals)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}
