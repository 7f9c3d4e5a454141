package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/hashing"
)

// refUnmarshalSampler is the one-pass sampler decoder that Sampler.decode
// replaced, kept as a test-only oracle: it reads every varint with
// binary.Uvarint and checks each label's level as it goes, into a
// freshly allocated sample. The fuzz targets require Sampler.decode —
// into a fresh sampler and into one that held other state — to accept
// and refuse exactly the payloads it does, and to decode the same
// state.
func refUnmarshalSampler(data []byte) (*Sampler, error) {
	if len(data) < headerLen || data[0] != wireMagic0 || data[1] != wireMagic1 || data[2] != wireVersion {
		return nil, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	family := FamilyKind(data[3])
	raise := RaisePolicy(data[4])
	if !family.valid() || (raise != RaiseIncrement && raise != RaiseJump) {
		return nil, fmt.Errorf("%w: bad family or raise", ErrCorrupt)
	}
	seed := binary.LittleEndian.Uint64(data[5:headerLen])
	buf := data[headerLen:]
	var hdr [3]uint64 // capacity, level, count
	for i := range hdr {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, truncated("header")
		}
		hdr[i], buf = v, buf[n:]
	}
	capacity, level, count := hdr[0], hdr[1], hdr[2]
	if capacity == 0 || capacity > 1<<32 || level > hashing.MaxLevel || count > capacity*2+16 || count > uint64(len(buf))/2+1 {
		return nil, fmt.Errorf("%w: implausible header", ErrCorrupt)
	}
	tmp := &Sampler{
		cfg:     Config{Capacity: int(capacity), Seed: seed, Family: family, Raise: raise},
		hash:    family.New(seed),
		level:   int(level),
		entries: make([]entry, 0, count),
	}
	var label uint64
	for i := uint64(0); i < count; i++ {
		delta, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, truncated("label")
		}
		buf = buf[n:]
		if i == 0 {
			label = delta
		} else {
			if delta == 0 || label+delta < label {
				return nil, fmt.Errorf("%w: labels not increasing", ErrCorrupt)
			}
			label += delta
		}
		weight, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, truncated("weight")
		}
		buf = buf[n:]
		lvl := hashing.GeometricLevel(tmp.hash.Hash(label))
		if lvl < tmp.level {
			return nil, fmt.Errorf("%w: level below sketch level", ErrCorrupt)
		}
		tmp.entries = append(tmp.entries, entry{label: label, weight: weight, level: int32(lvl)})
		tmp.weightSum += weight
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	return tmp, nil
}

// refUnmarshalEstimator is the matching estimator decoder: each copy
// decoded by refUnmarshalSampler into a fresh copy slice.
func refUnmarshalEstimator(data []byte) (*Estimator, error) {
	if len(data) < 12 || data[0] != wireMagic0 || data[1] != wireMagic1 || data[2] != wireVersion {
		return nil, fmt.Errorf("%w: bad estimator header", ErrCorrupt)
	}
	seed := binary.LittleEndian.Uint64(data[3:11])
	buf := data[11:]
	n, k := binary.Uvarint(buf)
	if k <= 0 || n == 0 || n > 1<<16 {
		return nil, fmt.Errorf("%w: bad copy count", ErrCorrupt)
	}
	buf = buf[k:]
	var copies []*Sampler
	for i := uint64(0); i < n; i++ {
		sz, k := binary.Uvarint(buf)
		if k <= 0 || uint64(len(buf[k:])) < sz {
			return nil, fmt.Errorf("%w: truncated copy", ErrCorrupt)
		}
		buf = buf[k:]
		s, err := refUnmarshalSampler(buf[:sz])
		if err != nil {
			return nil, err
		}
		copies = append(copies, s)
		buf = buf[sz:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	first := copies[0].cfg
	for _, s := range copies {
		if s.cfg.Capacity != first.Capacity || s.cfg.Family != first.Family {
			return nil, fmt.Errorf("%w: copy config diverges", ErrCorrupt)
		}
	}
	return &Estimator{
		cfg:    EstimatorConfig{Capacity: first.Capacity, Copies: int(n), Seed: seed, Family: first.Family, Raise: first.Raise},
		copies: copies,
	}, nil
}

// sameSampler reports whether two settled samplers hold the same
// state: configuration, level, sample (labels, weights and cached
// levels) and weight sum.
func sameSampler(a, b *Sampler) bool {
	return a.cfg == b.cfg && a.level == b.level && a.weightSum == b.weightSum &&
		slices.Equal(a.entries, b.entries) && len(a.pending) == 0 && len(b.pending) == 0
}

// sameEstimator is sameSampler over every copy.
func sameEstimator(a, b *Estimator) bool {
	if a.cfg != b.cfg || len(a.copies) != len(b.copies) {
		return false
	}
	for i := range a.copies {
		if !sameSampler(a.copies[i], b.copies[i]) {
			return false
		}
	}
	return true
}
