package core

import "testing"

// Native fuzz targets for the wire decoders. The seed corpus runs on
// every `go test`; `go test -fuzz=FuzzSamplerUnmarshal` explores
// further. The invariant under test: arbitrary bytes either fail to
// decode or produce a sketch that is fully usable (process, estimate,
// re-encode, merge with itself).
func FuzzSamplerUnmarshal(f *testing.F) {
	seed := buildSampler(3, 500)
	enc, err := seed.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte{})
	f.Add([]byte("GT"))
	f.Add(enc[:len(enc)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Sampler
		if err := s.UnmarshalBinary(data); err != nil {
			return
		}
		s.Process(42)
		_ = s.EstimateDistinct()
		re, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if s.SizeBytes() != len(re) {
			t.Fatalf("SizeBytes %d != encoded length %d", s.SizeBytes(), len(re))
		}
		var s2 Sampler
		if err := s2.UnmarshalBinary(re); err != nil {
			t.Fatalf("decoded sketch does not round-trip: %v", err)
		}
		clone := s.Clone()
		if enc, _ := clone.MarshalBinary(); string(enc) != string(re) {
			t.Fatalf("clone encodes differently from its source")
		}
		if err := s.Merge(clone); err != nil {
			t.Fatalf("self-merge failed: %v", err)
		}
	})
}

func FuzzEstimatorUnmarshal(f *testing.F) {
	e := NewEstimator(EstimatorConfig{Capacity: 16, Copies: 3, Seed: 1})
	for x := uint64(0); x < 300; x++ {
		e.Process(x)
	}
	enc, err := e.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte{})
	f.Add(enc[:len(enc)-2])
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Estimator
		if err := d.UnmarshalBinary(data); err != nil {
			return
		}
		d.Process(7)
		_ = d.EstimateDistinct()
		if _, err := d.MarshalBinary(); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
	})
}
