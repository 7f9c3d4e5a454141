package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/hashing"
)

func buildSampler(seed uint64, n int) *Sampler {
	r := hashing.NewXoshiro256(seed)
	s := NewSampler(Config{Capacity: 1 + r.Intn(64), Seed: r.Uint64()})
	for i := 0; i < n; i++ {
		s.ProcessWeighted(r.Uint64n(10000), 1+r.Uint64n(100))
	}
	return s
}

func TestMarshalRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		s := buildSampler(seed, int(seed%5000))
		enc, err := s.MarshalBinary()
		if err != nil {
			return false
		}
		got, err := DecodeSampler(enc)
		if err != nil {
			return false
		}
		enc2, err := got.MarshalBinary()
		if err != nil {
			return false
		}
		return string(enc) == string(enc2) &&
			got.Level() == s.Level() &&
			got.Len() == s.Len() &&
			got.EstimateSum() == s.EstimateSum() &&
			got.Config() == s.Config()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMarshalEmptySampler(t *testing.T) {
	s := NewSampler(Config{Capacity: 8, Seed: 3})
	enc, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSampler(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Level() != 0 {
		t.Errorf("decoded empty sampler has Len=%d Level=%d", got.Len(), got.Level())
	}
}

func TestMarshalAllFamilies(t *testing.T) {
	for _, fam := range []FamilyKind{FamilyPairwise, FamilyFourWise, FamilyTabulation} {
		s := NewSampler(Config{Capacity: 16, Seed: 4, Family: fam})
		for x := uint64(0); x < 500; x++ {
			s.Process(x)
		}
		enc, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		got, err := DecodeSampler(enc)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if got.Config().Family != fam {
			t.Errorf("family %s round-tripped as %s", fam, got.Config().Family)
		}
		if got.EstimateDistinct() != s.EstimateDistinct() {
			t.Errorf("%s: estimate changed across round trip", fam)
		}
	}
}

// TestMergeDecodedSketch exercises the paper's communication pattern:
// party B serializes, the coordinator decodes and merges into A's
// sketch; the result must equal an in-memory merge.
func TestMergeDecodedSketch(t *testing.T) {
	cfg := Config{Capacity: 32, Seed: 77}
	a1, a2 := NewSampler(cfg), NewSampler(cfg)
	b := NewSampler(cfg)
	for x := uint64(0); x < 2000; x++ {
		a1.Process(x)
		a2.Process(x)
	}
	for x := uint64(1500); x < 4000; x++ {
		b.Process(x)
	}
	enc, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSampler(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := a1.Merge(decoded); err != nil {
		t.Fatal(err)
	}
	if err := a2.Merge(b); err != nil {
		t.Fatal(err)
	}
	x, _ := a1.MarshalBinary()
	y, _ := a2.MarshalBinary()
	if string(x) != string(y) {
		t.Error("merge of decoded sketch differs from in-memory merge")
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	s := buildSampler(1, 1000)
	good, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte) {
		t.Helper()
		var d Sampler
		err := d.UnmarshalBinary(data)
		if err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
			return
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v is not ErrCorrupt", name, err)
		}
	}

	check("empty", nil)
	check("short", good[:5])
	check("truncated entries", good[:len(good)-1])

	mutate := func(idx int, val byte) []byte {
		c := append([]byte(nil), good...)
		c[idx] = val
		return c
	}
	check("bad magic", mutate(0, 'X'))
	check("bad version", mutate(2, 99))
	check("bad family", mutate(3, 200))
	check("bad raise", mutate(4, 200))
	check("seed flip", mutate(7, good[7]^0xff)) // entries no longer match level

	check("trailing bytes", append(append([]byte(nil), good...), 0, 0))
}

func TestUnmarshalRejectsLevelViolation(t *testing.T) {
	// Hand-build an encoding that claims a high level but contains a
	// label whose recomputed level is below it.
	s := NewSampler(Config{Capacity: 4, Seed: 123})
	for x := uint64(0); x < 200; x++ {
		s.Process(x)
	}
	if s.Level() == 0 {
		t.Fatal("test needs a raised level")
	}
	// Find a label with level 0 under this hash.
	h := s.cfg.Family.New(s.cfg.Seed)
	var bad uint64
	found := false
	for x := uint64(0); x < 1000; x++ {
		if hashing.GeometricLevel(h.Hash(x)) == 0 {
			bad, found = x, true
			break
		}
	}
	if !found {
		t.Skip("no level-0 label found (astronomically unlikely)")
	}
	forged := s.Clone()
	at, _ := slices.BinarySearchFunc(forged.entries, bad, func(e entry, l uint64) int { return cmp.Compare(e.label, l) })
	forged.entries = slices.Insert(forged.entries, at, entry{label: bad, weight: 1, level: 0})
	enc, err := forged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Sampler
	if err := d.UnmarshalBinary(enc); !errors.Is(err, ErrCorrupt) {
		t.Errorf("level-violating encoding accepted (err=%v)", err)
	}
}

func TestSizeBytesGrowsWithCapacity(t *testing.T) {
	small := NewSampler(Config{Capacity: 16, Seed: 1})
	large := NewSampler(Config{Capacity: 1024, Seed: 1})
	for x := uint64(0); x < 100000; x++ {
		small.Process(x)
		large.Process(x)
	}
	if small.SizeBytes() >= large.SizeBytes() {
		t.Errorf("sizes: capacity 16 -> %dB, capacity 1024 -> %dB", small.SizeBytes(), large.SizeBytes())
	}
	// The paper's point: the sketch is tiny compared to the 100k
	// distinct labels (even 8-byte labels would be 800 KB).
	if large.SizeBytes() > 32*1024 {
		t.Errorf("sketch unexpectedly large: %dB", large.SizeBytes())
	}
}

// SizeBytes is computed from the entries' varint lengths, never by
// encoding; it must still equal the encoded length exactly.
func TestSizeBytesMatchesEncoding(t *testing.T) {
	r := hashing.NewXoshiro256(77)
	for trial := 0; trial < 60; trial++ {
		n := 0
		if trial > 0 {
			n = r.Intn(20000)
		}
		s := buildSampler(r.Uint64(), n)
		enc, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := s.SizeBytes(); got != len(enc) {
			t.Fatalf("trial %d (%d items): SizeBytes = %d, encoding is %d bytes", trial, n, got, len(enc))
		}

		e := NewEstimator(EstimatorConfig{Capacity: 1 + r.Intn(300), Copies: 1 + r.Intn(7), Seed: r.Uint64()})
		for i := 0; i < n; i++ {
			e.ProcessWeighted(r.Uint64(), r.Uint64()>>r.Intn(64))
		}
		enc, err = e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := e.SizeBytes(); got != len(enc) {
			t.Fatalf("trial %d (%d items): estimator SizeBytes = %d, encoding is %d bytes", trial, n, got, len(enc))
		}
	}
}

// TestUvarintMatchesBinary checks the word-at-a-time varint reader
// against binary.Uvarint on every varint length from 1 to 11 bytes,
// with and without trailing bytes, for buffers shorter and longer than
// one word, including the 10-byte overflow cases.
func TestUvarintMatchesBinary(t *testing.T) {
	r := hashing.NewXoshiro256(11)
	check := func(buf []byte) {
		t.Helper()
		v, n := uvarint(buf)
		wv, wn := binary.Uvarint(buf)
		if v != wv || n != wn {
			t.Fatalf("uvarint(% x) = (%d, %d), binary.Uvarint = (%d, %d)", buf, v, n, wv, wn)
		}
	}
	for length := 1; length <= 11; length++ {
		for trail := 0; trail <= 9; trail++ {
			for trial := 0; trial < 200; trial++ {
				buf := make([]byte, length+trail)
				for i := range buf {
					buf[i] = byte(r.Uint64())
				}
				for i := 0; i < length-1; i++ {
					buf[i] |= 0x80 // continue
				}
				buf[length-1] &^= 0x80 // stop
				if trial%4 == 0 {
					buf[length-1] = byte(trial / 4 % 3) // 0, 1, 2: the 10th byte's edge
				}
				check(buf)
				check(buf[:length-1]) // truncated
			}
		}
	}
	for _, x := range []uint64{0, 1, 127, 128, 1<<56 - 1, 1 << 56, 1<<63 - 1, 1 << 63, ^uint64(0)} {
		buf := binary.AppendUvarint(nil, x)
		check(buf)
		check(append(buf, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff))
	}
}

// FuzzUvarint drives the same comparison with arbitrary bytes.
func FuzzUvarint(f *testing.F) {
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7f})
	f.Add(binary.AppendUvarint(nil, ^uint64(0)))
	f.Fuzz(func(t *testing.T, buf []byte) {
		v, n := uvarint(buf)
		if wv, wn := binary.Uvarint(buf); v != wv || n != wn {
			t.Fatalf("uvarint(% x) = (%d, %d), binary.Uvarint = (%d, %d)", buf, v, n, wv, wn)
		}
	})
}
