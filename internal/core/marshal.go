package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/hashing"
)

// Wire format (little endian, varint for counts):
//
//	magic   "GT"            2 bytes
//	version 1               1 byte
//	family  FamilyKind      1 byte
//	raise   RaisePolicy     1 byte
//	seed                    8 bytes
//	capacity                uvarint
//	level                   uvarint
//	count                   uvarint
//	entries, sorted by label:
//	    label delta         uvarint (first label absolute)
//	    weight              uvarint
//
// Entry levels are NOT serialized: the decoder recomputes them from
// the shared hash function, which both keeps the message at the
// O(c·log m) bits the paper charges for communication and lets the
// decoder verify that every entry is consistent with the declared
// level (a corrupted or uncoordinated message is rejected).

const (
	wireMagic0  = 'G'
	wireMagic1  = 'T'
	wireVersion = 1
)

// MarshalBinary encodes the sampler. The encoding is deterministic
// (entries are sorted), so equal samplers encode identically.
func (s *Sampler) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, s.SizeBytes()))
}

// AppendBinary appends the sampler's encoding to b and returns the
// extended slice. The sample is already sorted by label, so this is
// one linear walk.
func (s *Sampler) AppendBinary(b []byte) ([]byte, error) {
	s.flush()
	b = append(b, wireMagic0, wireMagic1, wireVersion, byte(s.cfg.Family), byte(s.cfg.Raise))
	b = binary.LittleEndian.AppendUint64(b, s.cfg.Seed)
	b = binary.AppendUvarint(b, uint64(s.cfg.Capacity))
	b = binary.AppendUvarint(b, uint64(s.level))
	b = binary.AppendUvarint(b, uint64(len(s.entries)))
	prev := uint64(0) // the first label is sent as a delta from 0
	for _, e := range s.entries {
		b = binary.AppendUvarint(b, e.label-prev)
		b = binary.AppendUvarint(b, e.weight)
		prev = e.label
	}
	return b, nil
}

// SizeBytes returns the length of the sampler's wire encoding — the
// quantity charged as per-party communication in experiments E4/E6 —
// computed from the entries' varint lengths without encoding.
func (s *Sampler) SizeBytes() int {
	s.flush()
	n := headerLen + uvarintLen(uint64(s.cfg.Capacity)) + uvarintLen(uint64(s.level)) + uvarintLen(uint64(len(s.entries)))
	prev := uint64(0)
	for _, e := range s.entries {
		n += uvarintLen(e.label-prev) + uvarintLen(e.weight)
		prev = e.label
	}
	return n
}

// headerLen is the fixed prefix of a sampler encoding: magic, version,
// family, raise tag and seed.
const headerLen = 13

// uvarintLen is len(binary.AppendUvarint(nil, x)).
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// UnmarshalBinary decodes a sampler previously encoded with
// MarshalBinary, replacing s's state entirely. It returns ErrCorrupt
// (wrapped with detail) if the message is malformed or internally
// inconsistent: labels must strictly increase, and every label's
// recomputed level must be at or above the declared one.
func (s *Sampler) UnmarshalBinary(data []byte) error {
	var tmp Sampler
	if err := tmp.decode(data); err != nil {
		return err
	}
	*s = tmp
	return nil
}

// decode is UnmarshalBinary into s's own buffers: the sample's backing
// array is reused when it is large enough, and the hash function when
// the family and seed are unchanged, so decoding one configuration
// over and over allocates nothing. On error s is left in an
// unspecified state.
func (s *Sampler) decode(data []byte) error {
	if len(data) < headerLen {
		return fmt.Errorf("%w: message too short (%d bytes)", ErrCorrupt, len(data))
	}
	if data[0] != wireMagic0 || data[1] != wireMagic1 {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:2])
	}
	if data[2] != wireVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrCorrupt, data[2])
	}
	family := FamilyKind(data[3])
	if !family.valid() {
		return fmt.Errorf("%w: unknown hash family %d", ErrCorrupt, data[3])
	}
	raise := RaisePolicy(data[4])
	if raise != RaiseIncrement && raise != RaiseJump {
		return fmt.Errorf("%w: unknown raise policy %d", ErrCorrupt, data[4])
	}
	seed := binary.LittleEndian.Uint64(data[5:headerLen])
	d := decoder{buf: data[headerLen:]}

	capacity, err := d.uvarint("capacity")
	if err != nil {
		return err
	}
	if capacity == 0 || capacity > 1<<32 {
		return fmt.Errorf("%w: implausible capacity %d", ErrCorrupt, capacity)
	}
	level, err := d.uvarint("level")
	if err != nil {
		return err
	}
	if level > hashing.MaxLevel {
		return fmt.Errorf("%w: level %d out of range", ErrCorrupt, level)
	}
	count, err := d.uvarint("count")
	if err != nil {
		return err
	}
	// A valid sampler can exceed capacity only in the degenerate
	// parked-at-MaxLevel state; allow a small slack, reject nonsense.
	if count > capacity*2+16 {
		return fmt.Errorf("%w: count %d exceeds capacity %d", ErrCorrupt, count, capacity)
	}
	// Every entry takes at least two bytes (label + weight varints),
	// so a count beyond half the remaining payload is forged; checking
	// here keeps the allocation below proportional to the input size
	// (never to the declared capacity).
	if count > uint64(len(d.buf))/2+1 {
		return fmt.Errorf("%w: count %d exceeds payload", ErrCorrupt, count)
	}

	if s.hash == nil || s.cfg.Family != family || s.cfg.Seed != seed {
		s.hash = family.New(seed)
	}
	s.cfg = Config{Capacity: int(capacity), Seed: seed, Family: family, Raise: raise}
	s.level = int(level)
	entries := s.entries[:0]
	if uint64(cap(entries)) < count {
		entries = make([]entry, 0, sampleCap(int(count), int(capacity)))
	}
	// Pass one reads the labels and weights, pass two re-derives and
	// checks every label's level. Apart from the hash they are the
	// whole cost of a decode, so the varint reads are inlined for the
	// common one-byte weight, and pass two calls the pairwise family,
	// the default, without the interface dispatch.
	buf := d.buf
	var label, weightSum uint64
	for i := uint64(0); i < count; i++ {
		delta, n := uvarint(buf)
		if n <= 0 {
			return truncated("label")
		}
		buf = buf[n:]
		if i == 0 {
			label = delta
		} else {
			if delta == 0 {
				return fmt.Errorf("%w: duplicate label in encoding", ErrCorrupt)
			}
			next := label + delta
			if next < label {
				return fmt.Errorf("%w: label overflow", ErrCorrupt)
			}
			label = next
		}
		var weight uint64
		if len(buf) > 0 && buf[0] < 0x80 {
			weight, buf = uint64(buf[0]), buf[1:]
		} else {
			weight, n = uvarint(buf)
			if n <= 0 {
				return truncated("weight")
			}
			buf = buf[n:]
		}
		entries = append(entries, entry{label: label, weight: weight})
		weightSum += weight
	}
	s.entries = entries
	if len(buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(buf))
	}
	if pw, ok := s.hash.(hashing.Pairwise); ok {
		for i := range entries {
			entries[i].level = int32(hashing.GeometricLevel(pw.Hash(entries[i].label)))
		}
	} else {
		for i := range entries {
			entries[i].level = int32(hashing.GeometricLevel(s.hash.Hash(entries[i].label)))
		}
	}
	for _, e := range entries {
		if int(e.level) < s.level {
			return fmt.Errorf("%w: label %d has level %d below sketch level %d", ErrCorrupt, e.label, e.level, s.level)
		}
	}
	s.weightSum = weightSum
	s.pending = s.pending[:0]
	s.recent = nil
	return nil
}

// uvarint is binary.Uvarint, reading a varint of up to 9 bytes with
// one 8-byte load: the first byte with its high bit clear ends the
// varint, and three mask-and-shift steps pack the 7-bit groups before
// it; a ninth byte, when the first eight all continue, supplies the
// top 7 bits. Ten-byte varints, and buffers shorter than 8 bytes, take
// binary.Uvarint, so the results (errors included) are
// binary.Uvarint's on every input.
func uvarint(buf []byte) (uint64, int) {
	if len(buf) < 8 {
		return binary.Uvarint(buf)
	}
	w := binary.LittleEndian.Uint64(buf)
	stop := ^w & 0x8080808080808080
	n := 9
	if stop != 0 {
		w &= stop ^ (stop - 1)
		n = (bits.TrailingZeros64(stop) + 1) / 8
	} else if len(buf) == 8 || buf[8] >= 0x80 {
		return binary.Uvarint(buf)
	}
	w &= 0x7f7f7f7f7f7f7f7f
	w = w&0x007f007f007f007f | w&0x7f007f007f007f00>>1
	w = w&0x00003fff00003fff | w&0x3fff00003fff0000>>2
	w = w&0x000000000fffffff | w&0x0fffffff00000000>>4
	if n == 9 {
		w |= uint64(buf[8]) << 56
	}
	return w, n
}

// DecodeSampler decodes a sampler from data into a fresh value.
func DecodeSampler(data []byte) (*Sampler, error) {
	s := &Sampler{}
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}

type decoder struct {
	buf []byte
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, truncated(what)
	}
	d.buf = d.buf[n:]
	return v, nil
}

// truncated is uvarint's error path, kept out of line so uvarint
// itself inlines into the decode loop.
func truncated(what string) error {
	return fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
}
