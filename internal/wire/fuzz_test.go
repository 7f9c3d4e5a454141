package wire

import (
	"bytes"
	"testing"
)

// FuzzWireDecode mirrors internal/core's FuzzSamplerUnmarshal for the
// network framing: arbitrary bytes must either be rejected or decode to
// a frame that re-encodes to the identical prefix of the input, with
// DecodeFrame and ReadFrame always agreeing. The seed corpus under
// testdata/fuzz runs on every `go test`; explore further with
//
//	go test -fuzz=FuzzWireDecode ./internal/wire
func FuzzWireDecode(f *testing.F) {
	f.Add(EncodeFrame(MsgPush, []byte("GT\x01sketch bytes")))
	f.Add(EncodeFrame(MsgAck, Ack{Code: AckSeedMismatch, Detail: "seed 7"}.Encode()))
	f.Add(AppendFrame(EncodeFrame(MsgQuery, Query{Kind: QueryDistinct, HasSeed: true, Seed: 42}.Encode()), MsgStats, nil))
	if np, err := EncodePushNamed("clicks", []byte("GT\x01sketch bytes")); err == nil {
		f.Add(EncodeFrame(MsgPushNamed, np))
	}
	if eqe, err := (ExprQuery{Expr: Jaccard(Union(Leaf("a"), Leaf("")), Leaf("b"))}).Encode(); err == nil {
		f.Add(EncodeFrame(MsgQueryExpr, eqe))
		f.Add(EncodeFrame(MsgQueryExpr, eqe[:len(eqe)-2]))
	}
	f.Add([]byte{})
	f.Add([]byte{Magic0, Magic1, Version})
	f.Add(EncodeFrame(MsgStats, nil)[:HeaderSize-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 16
		typ, payload, rest, err := DecodeFrame(data, limit)
		rtyp, rpayload, rerr := ReadFrame(bytes.NewReader(data), limit)
		if err != nil {
			// The stream reader may fail with a differently-worded
			// error, but it must not succeed where the buffer decoder
			// refused (modulo EOF on an empty input).
			if rerr == nil {
				t.Fatalf("DecodeFrame rejected (%v) but ReadFrame accepted", err)
			}
			return
		}
		if rerr != nil {
			t.Fatalf("DecodeFrame accepted but ReadFrame rejected: %v", rerr)
		}
		if rtyp != typ || !bytes.Equal(rpayload, payload) {
			t.Fatalf("decoders disagree: (%v, %d bytes) vs (%v, %d bytes)", typ, len(payload), rtyp, len(rpayload))
		}
		// Round trip: re-encoding the decoded frame must reproduce the
		// consumed input bytes exactly.
		re := EncodeFrame(typ, payload)
		if !bytes.Equal(re, data[:len(data)-len(rest)]) {
			t.Fatalf("re-encode differs from consumed input")
		}
		// Typed payloads must never panic on decode, valid or not.
		switch typ {
		case MsgAck:
			if a, err := DecodeAck(payload); err == nil {
				if _, err := DecodeAck(a.Encode()); err != nil {
					t.Fatalf("ack does not round-trip: %v", err)
				}
			}
		case MsgQuery:
			if q, err := DecodeQuery(payload); err == nil {
				if !bytes.Equal(q.Encode(), payload) {
					t.Fatal("query does not round-trip")
				}
				_, _ = q.Predicate()
			}
		case MsgQueryResult:
			_, _ = DecodeQueryResult(payload)
		case MsgPushNamed:
			if stream, env, err := DecodePushNamed(payload); err == nil {
				re, rerr := EncodePushNamed(stream, env)
				if rerr != nil || !bytes.Equal(re, payload) {
					t.Fatalf("named push does not round-trip (err=%v)", rerr)
				}
			}
		case MsgQueryExpr:
			if eq, err := DecodeExprQuery(payload); err == nil {
				// Anything the decoder accepts is structurally valid and
				// must re-encode to the identical bytes.
				if verr := eq.Expr.Validate(); verr != nil {
					t.Fatalf("decoded expression fails Validate: %v", verr)
				}
				re, rerr := eq.Encode()
				if rerr != nil || !bytes.Equal(re, payload) {
					t.Fatalf("expr query does not round-trip (err=%v)", rerr)
				}
				_ = eq.Expr.Leaves(nil)
				_ = eq.Expr.String()
			}
		case MsgQueryExprResult:
			if res, err := DecodeExprResult(payload); err == nil {
				re, rerr := EncodeExprResult(res)
				if rerr != nil || !bytes.Equal(re, payload) {
					t.Fatalf("expr result does not round-trip (err=%v)", rerr)
				}
			}
		}
	})
}
