package kmv

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

func TestMarshalRoundTrip(t *testing.T) {
	s := New(64, 9)
	for x := uint64(0); x < 5000; x++ {
		s.Process(x)
	}
	enc, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Sketch
	if err := got.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if got.Estimate() != s.Estimate() {
		t.Error("estimate changed across round trip")
	}
	if got.Len() != s.Len() {
		t.Errorf("Len %d vs %d", got.Len(), s.Len())
	}
	if err := got.Merge(s); err != nil {
		t.Errorf("decoded sketch cannot merge with original: %v", err)
	}
	// Canonical: re-encoding gives identical bytes.
	enc2, _ := got.MarshalBinary()
	if string(enc) != string(enc2) {
		t.Error("encoding not canonical")
	}
}

func TestMarshalPartial(t *testing.T) {
	s := New(100, 2)
	for x := uint64(0); x < 10; x++ {
		s.Process(x)
	}
	enc, _ := s.MarshalBinary()
	var got Sketch
	if err := got.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if got.Estimate() != 10 {
		t.Errorf("partial estimate = %v, want 10", got.Estimate())
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	s := New(8, 1)
	for x := uint64(0); x < 100; x++ {
		s.Process(x)
	}
	enc, _ := s.MarshalBinary()
	var d Sketch
	for name, data := range map[string][]byte{
		"empty":     nil,
		"magic":     append([]byte("XXX"), enc[3:]...),
		"truncated": enc[:len(enc)-1],
		"trailing":  append(append([]byte{}, enc...), 0, 0),
	} {
		if err := d.UnmarshalBinary(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestUnmarshalCountBomb sends a 17-byte payload whose header declares
// k = count = 2^20 and then ends. The decoder must refuse it without
// allocating for the declared count: every value takes at least one
// byte, so the payload bounds the allocation, not the header.
func TestUnmarshalCountBomb(t *testing.T) {
	data := []byte{'K', 'V', '1', 0, 0, 0, 0, 0, 0, 0, 0}
	data = binary.AppendUvarint(data, 1<<20) // k
	data = binary.AppendUvarint(data, 1<<20) // count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var d Sketch
	err := d.UnmarshalBinary(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%d-byte payload declaring 2^20 values: err = %v, want ErrCorrupt", len(data), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("%d-byte payload declaring 2^20 values allocated %d bytes; want < 1 MiB", len(data), grew)
	}
}

// TestUnmarshalWrappedDeltas covers encodings whose delta sum wraps
// past 2^64, which no encoder writes but which inserting the values
// one by one accepted: they decode to the same set as long as the
// wrapped values stay distinct, and are refused as duplicates
// otherwise.
func TestUnmarshalWrappedDeltas(t *testing.T) {
	enc := func(first uint64, deltas ...uint64) []byte {
		b := []byte{'K', 'V', '1', 9, 0, 0, 0, 0, 0, 0, 0}
		b = binary.AppendUvarint(b, 8)                     // k
		b = binary.AppendUvarint(b, uint64(len(deltas)+1)) // count
		b = binary.AppendUvarint(b, first)
		for _, d := range deltas {
			b = binary.AppendUvarint(b, d)
		}
		return b
	}
	// 2^64-10, then +15 wraps to 5, then +20 gives 25.
	var d Sketch
	if err := d.UnmarshalBinary(enc(1<<64-10, 15, 20)); err != nil {
		t.Fatalf("wrapped distinct values: %v", err)
	}
	want := New(8, 9)
	for _, v := range []uint64{5, 25, 1<<64 - 10} {
		want.insert(v)
	}
	got, _ := d.MarshalBinary()
	if w, _ := want.MarshalBinary(); string(got) != string(w) {
		t.Errorf("wrapped distinct values decoded to % x, want % x", got, w)
	}
	if d.heap[0] != 1<<64-10 {
		t.Errorf("heap root %d, want the largest value", d.heap[0])
	}
	// 2^64-10, then +15 wraps to 5, then 2^64-15 wraps back to 2^64-10.
	if err := d.UnmarshalBinary(enc(1<<64-10, 15, 1<<64-15)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrapped duplicate values: err = %v, want ErrCorrupt", err)
	}
}
