// Decoder-robustness suite for the registry: every registered kind's
// decoder — reached the same way the coordinator reaches it, through
// sketch.Open — must survive arbitrary and corrupted envelopes
// without panicking. The table of per-type encoders the pre-registry
// version of this file hand-maintained is gone: iterating
// sketch.Kinds() means a newly registered kind is fuzzed with no test
// edit at all.
package sketch_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/hashing"
	"repro/internal/sketch"

	// Register every kind so the suite covers the full registry.
	_ "repro/internal/sketch/kinds"
)

// seedEnvelope builds a valid, populated envelope for the kind.
func seedEnvelope(tb testing.TB, info sketch.KindInfo) []byte {
	tb.Helper()
	sk := info.New(0.25, 1)
	for x := uint64(0); x < 1000; x++ {
		sk.Process(x)
	}
	env, err := sketch.Envelope(sk)
	if err != nil {
		tb.Fatalf("%s: envelope: %v", info.Name, err)
	}
	return env
}

func TestDecodersNeverPanic(t *testing.T) {
	for _, info := range sketch.Kinds() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			enc := seedEnvelope(t, info)
			r := hashing.NewXoshiro256(3)
			for trial := 0; trial < 2000; trial++ {
				var data []byte
				if trial%2 == 0 {
					data = make([]byte, r.Intn(140))
					for i := range data {
						data[i] = byte(r.Uint64())
					}
				} else {
					data = append([]byte(nil), enc...)
					for k := 0; k < 1+r.Intn(4); k++ {
						data[r.Intn(len(data))] = byte(r.Uint64())
					}
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("Open panicked on trial %d: %v", trial, p)
						}
					}()
					_, _ = sketch.Open(data)
				}()
			}
		})
	}
}

// FuzzSketchOpen drives Open with arbitrary bytes: it must never
// panic, and anything it accepts must re-envelope to bytes Open
// accepts again with the same kind and digest. A Scratch that has
// already decoded an envelope of the input's kind must accept and
// refuse exactly what Open does and decode the same sketch; for the
// kmv, hll and fm kinds, so must the kinds' old decoders
// (refdecode_test.go).
func FuzzSketchOpen(f *testing.F) {
	// warm holds an envelope of every kind in another configuration:
	// each input's Scratch decodes the one of the input's kind first.
	warm := map[byte][]byte{}
	for _, info := range sketch.Kinds() {
		f.Add(seedEnvelope(f, info))
		sk := info.New(0.5, 7)
		for x := uint64(0); x < 300; x++ {
			sk.Process(x * 7919)
		}
		env, err := sketch.Envelope(sk)
		if err != nil {
			f.Fatal(err)
		}
		warm[byte(info.Kind)] = env
	}
	f.Add([]byte{})
	f.Add([]byte{sketch.EnvelopeMagic0, sketch.EnvelopeMagic1})
	// A kmv payload whose deltas wrap past 2^64: 2^64-10, 5, 25.
	wrapped := []byte{sketch.EnvelopeMagic0, sketch.EnvelopeMagic1, byte(sketch.KindKMV), 1}
	wrapped = binary.LittleEndian.AppendUint64(wrapped, sketch.ConfigDigest(sketch.KindKMV, 8, 9))
	wrapped = append(wrapped, 'K', 'V', '1', 9, 0, 0, 0, 0, 0, 0, 0, 8, 3)
	for _, v := range []uint64{1<<64 - 10, 15, 20} {
		wrapped = binary.AppendUvarint(wrapped, v)
	}
	f.Add(wrapped)
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc sketch.Scratch
		if len(data) > 2 && warm[data[2]] != nil {
			if _, err := sc.Open(warm[data[2]]); err != nil {
				t.Fatalf("warming the scratch: %v", err)
			}
		}
		scSk, scErr := sc.Open(data)
		sk, err := sketch.Open(data)
		if (scErr == nil) != (err == nil) {
			t.Fatalf("Open err %v, Scratch.Open err %v", err, scErr)
		}
		if len(data) >= sketch.EnvelopeHeaderSize && data[0] == sketch.EnvelopeMagic0 && data[1] == sketch.EnvelopeMagic1 && data[3] == 1 {
			canon, digest, rerr, ok := refDecode(sketch.Kind(data[2]), data[sketch.EnvelopeHeaderSize:])
			if ok {
				if rerr == nil && digest != binary.LittleEndian.Uint64(data[4:12]) {
					rerr = errRef // Open's digest cross-check
				}
				if (rerr == nil) != (err == nil) {
					t.Fatalf("Open err %v, old decoder err %v", err, rerr)
				}
				if err == nil {
					if got, _ := sk.MarshalBinary(); !bytes.Equal(got, canon) {
						t.Fatalf("Open decoded % x, old decoder % x", got, canon)
					}
				}
			}
		}
		if err != nil {
			return
		}
		got, _ := sk.MarshalBinary()
		if scGot, _ := scSk.MarshalBinary(); !bytes.Equal(scGot, got) || scSk.Digest() != sk.Digest() {
			t.Fatalf("Scratch.Open decoded a different sketch from Open")
		}
		env, err := sketch.Envelope(sk)
		if err != nil {
			t.Fatalf("accepted sketch does not re-envelope: %v", err)
		}
		// The envelope header is canonical, so the re-encoded header
		// must equal the input's.
		if !bytes.Equal(env[:sketch.EnvelopeHeaderSize], data[:sketch.EnvelopeHeaderSize]) {
			t.Fatalf("re-enveloped header differs from input header")
		}
		if _, err := sketch.Open(env); err != nil {
			t.Fatalf("re-enveloped sketch rejected: %v", err)
		}
	})
}
