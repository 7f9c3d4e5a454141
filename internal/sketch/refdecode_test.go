package sketch_test

import (
	"encoding/binary"
	"errors"
	"slices"

	"repro/internal/sketch"
)

// The decoders the kmv, hll and fm kinds had before they decoded into
// reusable buffers, kept as test-only oracles: each checks a payload
// the way its kind's old UnmarshalBinary did and returns the canonical
// encoding and config digest of the sketch it would have built.
// FuzzSketchOpen requires Open to accept and refuse exactly what they
// do and to decode the same sketch.

var errRef = errors.New("reference decoder refused the payload")

// refDecode dispatches on the envelope's kind; ok is false for kinds
// without a reference decoder here.
func refDecode(kind sketch.Kind, payload []byte) (canon []byte, digest uint64, err error, ok bool) {
	switch kind {
	case sketch.KindKMV:
		canon, digest, err = refDecodeKMV(payload)
	case sketch.KindLogLog:
		canon, digest, err = refDecodeRegisters(payload, "LL1", 1, 16, 1<<26, sketch.KindLogLog)
	case sketch.KindFM:
		canon, digest, err = refDecodeRegisters(payload, "FM1", 8, 1, 1<<24, sketch.KindFM)
	default:
		return nil, 0, nil, false
	}
	return canon, digest, err, true
}

// refDecodeKMV inserts the values one at a time into a set, as the old
// decoder inserted them into its heap: delta sums wrap past 2^64, and
// a repeated value is refused after the trailing-byte check.
func refDecodeKMV(data []byte) ([]byte, uint64, error) {
	if len(data) < 12 || string(data[:3]) != "KV1" {
		return nil, 0, errRef
	}
	seed := binary.LittleEndian.Uint64(data[3:11])
	rest := data[11:]
	k, n := binary.Uvarint(rest)
	if n <= 0 || k < 2 || k > 1<<30 {
		return nil, 0, errRef
	}
	rest = rest[n:]
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > k {
		return nil, 0, errRef
	}
	rest = rest[n:]
	set := map[uint64]bool{}
	var v uint64
	for i := uint64(0); i < count; i++ {
		delta, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, 0, errRef
		}
		rest = rest[n:]
		if i == 0 {
			v = delta
		} else {
			if delta == 0 {
				return nil, 0, errRef
			}
			v += delta
		}
		set[v] = true
	}
	if len(rest) != 0 || uint64(len(set)) != count {
		return nil, 0, errRef
	}
	vals := make([]uint64, 0, len(set))
	for v := range set {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	canon := binary.LittleEndian.AppendUint64([]byte("KV1"), seed)
	canon = binary.AppendUvarint(canon, k)
	canon = binary.AppendUvarint(canon, count)
	prev := uint64(0)
	for _, v := range vals {
		canon = binary.AppendUvarint(canon, v-prev)
		prev = v
	}
	return canon, sketch.ConfigDigest(sketch.KindKMV, k, seed), nil
}

// refDecodeRegisters is the shared shape of the hll and fm decoders:
// magic, weak flag, seed, a uvarint register count in [lo, hi], then
// exactly count registers of width bytes (hll registers at most 63).
func refDecodeRegisters(data []byte, magic string, width, lo, hi uint64, kind sketch.Kind) ([]byte, uint64, error) {
	if len(data) < 13 || string(data[:3]) != magic || data[3] > 1 {
		return nil, 0, errRef
	}
	weak := uint64(data[3])
	seed := binary.LittleEndian.Uint64(data[4:12])
	rest := data[12:]
	count, n := binary.Uvarint(rest)
	if n <= 0 || count < lo || count > hi {
		return nil, 0, errRef
	}
	rest = rest[n:]
	if uint64(len(rest)) != width*count {
		return nil, 0, errRef
	}
	if kind == sketch.KindLogLog && slices.ContainsFunc(rest, func(r byte) bool { return r > 63 }) {
		return nil, 0, errRef
	}
	canon := append([]byte(magic), data[3])
	canon = binary.LittleEndian.AppendUint64(canon, seed)
	canon = binary.AppendUvarint(canon, count)
	canon = append(canon, rest...)
	return canon, sketch.ConfigDigest(kind, count, seed, weak), nil
}
