package core

import (
	"encoding/binary"
	"sort"

	"repro/internal/hashing"
)

// refSampler is the map-backed coordinated sampler the sorted-slice
// Sampler replaced, kept verbatim in behaviour as a test-only oracle:
// the differential test in oracle_test.go drives both through the same
// operations and requires byte-identical encodings and float64-identical
// estimates. It keeps both historical raise loops (one level step at a
// time, and a histogram jump) so the oracle also pins that the single
// raise in Sampler reaches the state of either.
type refSampler struct {
	cfg       Config
	hash      hashing.Family
	level     int
	entries   map[uint64]refEntry
	weightSum uint64
}

type refEntry struct {
	weight uint64
	level  int32
}

func newRefSampler(cfg Config) *refSampler {
	return &refSampler{
		cfg:     cfg,
		hash:    cfg.Family.New(cfg.Seed),
		entries: make(map[uint64]refEntry, cfg.Capacity+1),
	}
}

func (s *refSampler) Process(label uint64) { s.ProcessWeighted(label, 1) }

func (s *refSampler) ProcessWeighted(label, value uint64) {
	lvl := hashing.GeometricLevel(s.hash.Hash(label))
	if lvl < s.level {
		return
	}
	if _, ok := s.entries[label]; ok {
		return
	}
	s.entries[label] = refEntry{weight: value, level: int32(lvl)}
	s.weightSum += value
	if len(s.entries) > s.cfg.Capacity {
		s.raise()
	}
}

func (s *refSampler) raise() {
	if s.cfg.Raise == RaiseJump {
		s.jumpRaise()
	} else {
		s.stepRaise()
	}
}

func (s *refSampler) stepRaise() {
	for len(s.entries) > s.cfg.Capacity && s.level < hashing.MaxLevel {
		s.level++
		s.dropBelowLevel()
	}
}

func (s *refSampler) jumpRaise() {
	if len(s.entries) <= s.cfg.Capacity {
		return
	}
	var hist [hashing.MaxLevel + 2]int
	for _, e := range s.entries {
		hist[e.level]++
	}
	suffix := 0
	target := hashing.MaxLevel
	for i := hashing.MaxLevel; i > s.level; i-- {
		suffix += hist[i]
		if suffix <= s.cfg.Capacity {
			target = i
		}
	}
	s.level = target
	s.dropBelowLevel()
}

func (s *refSampler) dropBelowLevel() {
	for label, e := range s.entries {
		if int(e.level) < s.level {
			delete(s.entries, label)
			s.weightSum -= e.weight
		}
	}
}

func (s *refSampler) Merge(other *refSampler) {
	if other.level > s.level {
		s.level = other.level
		s.dropBelowLevel()
	}
	for label, e := range other.entries {
		if int(e.level) < s.level {
			continue
		}
		if _, ok := s.entries[label]; ok {
			continue
		}
		s.entries[label] = e
		s.weightSum += e.weight
	}
	if len(s.entries) > s.cfg.Capacity {
		s.raise()
	}
}

func (s *refSampler) EstimateDistinct() float64 {
	return float64(len(s.entries)) * pow2(s.level)
}

func (s *refSampler) EstimateSum() float64 {
	return float64(s.weightSum) * pow2(s.level)
}

func (s *refSampler) EstimateCountWhere(pred func(uint64) bool) float64 {
	n := 0
	for label := range s.entries {
		if pred(label) {
			n++
		}
	}
	return float64(n) * pow2(s.level)
}

func (s *refSampler) EstimateSumWhere(pred func(uint64) bool) float64 {
	var sum uint64
	for label, e := range s.entries {
		if pred(label) {
			sum += e.weight
		}
	}
	return float64(sum) * pow2(s.level)
}

func (s *refSampler) Clone() *refSampler {
	c := newRefSampler(s.cfg)
	c.level = s.level
	c.weightSum = s.weightSum
	for label, e := range s.entries {
		c.entries[label] = e
	}
	return c
}

func (s *refSampler) Reset() {
	s.level = 0
	s.weightSum = 0
	clear(s.entries)
}

func (s *refSampler) MarshalBinary() []byte {
	labels := make([]uint64, 0, len(s.entries))
	for label := range s.entries {
		labels = append(labels, label)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	b := []byte{wireMagic0, wireMagic1, wireVersion, byte(s.cfg.Family), byte(s.cfg.Raise)}
	b = binary.LittleEndian.AppendUint64(b, s.cfg.Seed)
	b = binary.AppendUvarint(b, uint64(s.cfg.Capacity))
	b = binary.AppendUvarint(b, uint64(s.level))
	b = binary.AppendUvarint(b, uint64(len(labels)))
	prev := uint64(0)
	for i, label := range labels {
		if i == 0 {
			b = binary.AppendUvarint(b, label)
		} else {
			b = binary.AppendUvarint(b, label-prev)
		}
		prev = label
		b = binary.AppendUvarint(b, s.entries[label].weight)
	}
	return b
}

// refEstimateIntersection, refEstimateDifference and refEstimateJaccard
// are the map-probing scalar set estimators.
func refEstimateIntersection(a, b *refSampler) float64 {
	level := max(a.level, b.level)
	count := 0
	for label, e := range a.entries {
		if int(e.level) < level {
			continue
		}
		if be, ok := b.entries[label]; ok && int(be.level) >= level {
			count++
		}
	}
	return float64(count) * pow2(level)
}

func refEstimateDifference(a, b *refSampler) float64 {
	level := max(a.level, b.level)
	count := 0
	for label, e := range a.entries {
		if int(e.level) < level {
			continue
		}
		if be, ok := b.entries[label]; ok && int(be.level) >= level {
			continue
		}
		count++
	}
	return float64(count) * pow2(level)
}

func refEstimateJaccard(a, b *refSampler) float64 {
	level := max(a.level, b.level)
	inter, union := 0, 0
	for label, e := range a.entries {
		if int(e.level) < level {
			continue
		}
		union++
		if be, ok := b.entries[label]; ok && int(be.level) >= level {
			inter++
		}
	}
	for label, e := range b.entries {
		if int(e.level) < level {
			continue
		}
		if ae, ok := a.entries[label]; ok && int(ae.level) >= level {
			continue
		}
		union++
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func refIntersect(a, b *refSampler) *refSampler {
	out := newRefSampler(a.cfg)
	out.level = max(a.level, b.level)
	for label, e := range a.entries {
		if int(e.level) < out.level {
			continue
		}
		if be, ok := b.entries[label]; ok && int(be.level) >= out.level {
			out.entries[label] = e
			out.weightSum += e.weight
		}
	}
	return out
}

func refDiff(a, b *refSampler) *refSampler {
	out := newRefSampler(a.cfg)
	out.level = max(a.level, b.level)
	for label, e := range a.entries {
		if int(e.level) < out.level {
			continue
		}
		if be, ok := b.entries[label]; ok && int(be.level) >= out.level {
			continue
		}
		out.entries[label] = e
		out.weightSum += e.weight
	}
	return out
}
