package core

import (
	"testing"

	"repro/internal/hashing"
)

// Native fuzz targets for the wire decoders. The seed corpus runs on
// every `go test`; `go test -fuzz=FuzzSamplerUnmarshal` explores
// further. The invariants under test: arbitrary bytes either fail to
// decode or produce a sketch that is fully usable (process, estimate,
// re-encode, merge with itself); and UnmarshalBinary, a decode into a
// sketch that held other state (what an absorb slot's scratch does),
// and the reference decoder in refdecode_test.go accept and refuse
// the same bytes and decode the same state.
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
	// 64-bit labels: most label deltas take 8 or 9 varint bytes, the
	// first label up to 10.
	wide := NewSampler(Config{Capacity: 32, Seed: 5})
	for x := uint64(0); x < 2000; x++ {
		wide.Process(hashing.Mix64(x))
	}
	wideEnc, err := wide.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wideEnc)
	// warm holds another configuration's sample, as an absorb slot's
	// scratch does when the next push decodes into it.
	warmEnc, err := buildSampler(9, 2000).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, rerr := refUnmarshalSampler(data)
		var warm Sampler
		if err := warm.decode(warmEnc); err != nil {
			t.Fatalf("warm decode: %v", err)
		}
		werr := warm.decode(data)
		var s Sampler
		err := s.UnmarshalBinary(data)
		if (err == nil) != (rerr == nil) || (werr == nil) != (rerr == nil) {
			t.Fatalf("UnmarshalBinary err %v, decode into a used sampler err %v, reference decoder err %v", err, werr, rerr)
		}
		if err != nil {
			return
		}
		if !sameSampler(&s, ref) || !sameSampler(&warm, ref) {
			t.Fatalf("decoded state differs from the reference decoder's")
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
	warmEst := NewEstimator(EstimatorConfig{Capacity: 64, Copies: 5, Seed: 2, Family: FamilyFourWise})
	for x := uint64(0); x < 1000; x++ {
		warmEst.Process(x)
	}
	warmEnc, err := warmEst.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, rerr := refUnmarshalEstimator(data)
		var warm Estimator
		if err := warm.decode(warmEnc); err != nil {
			t.Fatalf("warm decode: %v", err)
		}
		werr := warm.decode(data)
		var d Estimator
		err := d.UnmarshalBinary(data)
		if (err == nil) != (rerr == nil) || (werr == nil) != (rerr == nil) {
			t.Fatalf("UnmarshalBinary err %v, decode into a used estimator err %v, reference decoder err %v", err, werr, rerr)
		}
		if err != nil {
			return
		}
		if !sameEstimator(&d, ref) || !sameEstimator(&warm, ref) {
			t.Fatalf("decoded state differs from the reference decoder's")
		}
		d.Process(7)
		_ = d.EstimateDistinct()
		if _, err := d.MarshalBinary(); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
	})
}
